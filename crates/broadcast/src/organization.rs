//! Broadcast organizations: how a cycle's content is laid out on air.
//!
//! Five organizations are provided:
//!
//! * [`Flat`] — §5.1's default: every item exactly once per cycle, in item
//!   order, at positions fixed relative to the start of the data segment
//!   (its absolute slot moves with the length of the control segment).
//! * [`IndexedFlat`] — the flat layout with replicated on-air index
//!   copies ((1, m) indexing, §2.1).
//! * [`MultiversionOverflow`] — Figure 2(b): current versions at the same
//!   fixed positions, carrying pointers into trailing overflow buckets
//!   that hold the old versions in reverse chronological order.
//! * [`MultiversionClustered`] — Figure 2(a): all retained versions of an
//!   item broadcast successively; positions shift, so a rebuilt
//!   [`Directory`] is broadcast with the control segment every cycle.
//! * [`BroadcastDisks`] — the §7 extension: items partitioned onto virtual
//!   "disks" spinning at different speeds, so hot items appear several
//!   times per (major) cycle.
//!
//! Every `assemble` takes the records as a [`RecordColumn`] (a sorted
//! `Vec<ItemRecord>` converts, checked once) and stores the column in the
//! bcast without copying it. The four fixed-position organizations also
//! keep the occurrence rows they laid out last: an organization used for
//! many cycles — the server keeps its own for the run — hands every bcast
//! the same rows and only shifts them, in place, when the control segment
//! changes length. Clustered multiversion lays its rows out every cycle.
//! The multiversion two also take the old versions as one [`OldVersions`]
//! column, write each entry's slot into it in place and store it as is.

use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

use bpush_types::{Cycle, ItemId, ItemValue};

use crate::bcast::{Bcast, Occurrences, RecordColumn};
use crate::control::ControlInfo;
use crate::directory::Directory;
use crate::size_model::SizeParams;

/// The old versions of a bcast as one flat column: items strictly
/// ascending, chain `i` (most recent first) the entries from `start[i]`
/// to the next chain's start, each with the slot that airs it once an
/// organization has laid it out. [`OldVersions::add_chain`] appends
/// unchecked; the multiversion organizations check the column (see
/// [`MultiversionOverflow::assemble`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OldVersions {
    items: Vec<ItemId>,
    start: Vec<u32>,
    pub(crate) entries: Vec<(u64, ItemValue)>,
}

impl OldVersions {
    /// An empty column with room for `chains` chains of `entries` in all.
    pub fn with_capacity(chains: usize, entries: usize) -> Self {
        OldVersions {
            items: Vec::with_capacity(chains),
            start: Vec::with_capacity(chains),
            entries: Vec::with_capacity(entries),
        }
    }

    /// Appends `item`'s chain, most recent first; an empty one adds nothing.
    pub fn add_chain(&mut self, item: ItemId, chain: impl IntoIterator<Item = ItemValue>) {
        let first = self.entries.len();
        self.entries
            .extend(chain.into_iter().map(|value| (0, value)));
        if self.entries.len() > first {
            self.items.push(item);
            // past 2^32 entries the pointers saturate, as the rows do
            self.start.push(u32::try_from(first).unwrap_or(u32::MAX));
        }
    }

    /// Chain `i`, or `None` past the last chain.
    fn chain_at(&self, i: usize) -> Option<&[(u64, ItemValue)]> {
        let lo = *self.start.get(i)? as usize;
        let next = self.start.get(i.checked_add(1)?);
        self.entries
            .get(lo..next.map_or(self.entries.len(), |&hi| hi as usize))
    }

    /// The chain of `item`: empty when it has no old version.
    pub(crate) fn chain_of(&self, item: ItemId) -> &[(u64, ItemValue)] {
        let at = self.items.binary_search(&item).ok();
        at.and_then(|i| self.chain_at(i)).unwrap_or(&[])
    }

    /// Checks the column against the records it is laid out with.
    ///
    /// # Panics
    /// Panics unless the items are strictly ascending and on `records`
    /// and every chain is strictly most recent first.
    fn check_against(&self, records: &RecordColumn) {
        let sorted = self.items.windows(2).all(|w| matches!(w, [a, b] if a < b));
        assert!(sorted, "old versions must be sorted by item id");
        for (i, &item) in self.items.iter().enumerate() {
            let on_air = records.position(item).is_some();
            assert!(on_air, "{item} has old versions but is not on air");
            let chain = self.chain_at(i).unwrap_or(&[]);
            let newest_first = chain
                .windows(2)
                .all(|w| matches!(w, [(_, a), (_, b)] if a.version() > b.version()));
            assert!(newest_first, "old-version chains must run newest first");
        }
    }
}

/// CSR row starts (see [`Bcast`]) of a layout airing each of `records`
/// records exactly once: row `i` is occurrence slot `i`.
fn one_slot_each(records: usize) -> Vec<u32> {
    // stops short past 2^32 records, which `Bcast::from_parts` rejects
    (0..=records).map_while(|i| u32::try_from(i).ok()).collect()
}

/// Rows of a layout airing `records` records once each in item order,
/// `per_bucket` to a bucket, from slot `base` on.
fn packed(records: usize, per_bucket: u64, base: u64) -> Occurrences {
    let slots = (0..records as u64).map(|idx| base + idx / per_bucket);
    Occurrences::new(base, one_slot_each(records), slots.collect())
}

/// The occurrence rows a fixed-position organization laid out last, kept
/// for its next `assemble`. Not part of the organization's value: a
/// clone starts empty and any two caches compare equal.
#[derive(Default)]
struct RowCache(Cell<Option<Arc<Occurrences>>>);

impl RowCache {
    /// The rows of `records` records after `control_slots` control
    /// slots: the kept ones when they have as many rows — shifted first
    /// if the control segment changed length, in place unless a live
    /// bcast still shares them — else `lay_out(control_slots)`.
    fn rows(
        &self,
        records: usize,
        control_slots: u64,
        lay_out: impl FnOnce(u64) -> Occurrences,
    ) -> Arc<Occurrences> {
        let rows = match self.0.take() {
            Some(mut kept) if kept.rows() == records => {
                if kept.base() != control_slots {
                    Arc::make_mut(&mut kept).rebase(control_slots);
                }
                kept
            }
            _ => Arc::new(lay_out(control_slots)),
        };
        self.0.set(Some(Arc::clone(&rows)));
        rows
    }
}

impl Clone for RowCache {
    fn clone(&self) -> Self {
        RowCache::default()
    }
}

impl PartialEq for RowCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for RowCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RowCache")
    }
}

/// The flat organization: each item once per cycle, at a position fixed
/// relative to the start of the data segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Flat {
    items_per_bucket: u32,
    sizes: SizeParams,
    rows: RowCache,
}

impl Flat {
    /// Creates a flat organization packing `items_per_bucket` records per
    /// bucket.
    ///
    /// # Panics
    /// Panics if `items_per_bucket` is zero.
    pub fn new(items_per_bucket: u32) -> Self {
        assert!(items_per_bucket > 0, "items_per_bucket must be positive");
        Flat {
            items_per_bucket,
            sizes: SizeParams::default(),
            rows: RowCache::default(),
        }
    }

    /// Overrides the abstract size parameters used for control-segment
    /// slot accounting.
    #[must_use]
    pub fn with_sizes(mut self, sizes: SizeParams) -> Self {
        self.sizes = sizes;
        self
    }

    /// Assembles the bcast for `cycle`. `records` must be sorted by item
    /// id (fixed positions depend on it).
    ///
    /// # Panics
    /// Panics if `records` is a `Vec` not sorted by item id.
    pub fn assemble(
        &self,
        cycle: Cycle,
        control: ControlInfo,
        records: impl Into<RecordColumn>,
    ) -> Bcast {
        let records = records.into();
        let control_slots = control.slots(self.sizes.bucket, self.sizes.key, self.sizes.tid);
        let ipb = u64::from(self.items_per_bucket);
        let n = records.len();
        let rows = self
            .rows
            .rows(n, control_slots, |base| packed(n, ipb, base));
        Bcast::from_parts(
            cycle,
            control,
            control_slots,
            (n as u64).div_ceil(ipb),
            0,
            rows,
            records,
            OldVersions::default(),
            None,
        )
    }
}

/// The flat organization with replicated on-air indexes — the (1, m)
/// indexing of §2.1's self-descriptive broadcast: the full directory is
/// broadcast `m` times per cycle, each copy preceding `1/m` of the data,
/// so a client *without* a locally stored directory tunes to the next
/// index copy (instead of scanning up to a whole cycle) before jumping to
/// its item.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexedFlat {
    segments: u32,
    items_per_bucket: u32,
    sizes: SizeParams,
    rows: RowCache,
}

impl IndexedFlat {
    /// Creates the organization with `segments` replicated index copies.
    ///
    /// # Panics
    /// Panics if `segments` or `items_per_bucket` is zero.
    pub fn new(segments: u32, items_per_bucket: u32) -> Self {
        assert!(segments > 0, "at least one index segment required");
        assert!(items_per_bucket > 0, "items_per_bucket must be positive");
        IndexedFlat {
            segments,
            items_per_bucket,
            sizes: SizeParams::default(),
            rows: RowCache::default(),
        }
    }

    /// Overrides the abstract size parameters.
    #[must_use]
    pub fn with_sizes(mut self, sizes: SizeParams) -> Self {
        self.sizes = sizes;
        // the index copies' length, and so every row, depends on them
        self.rows = RowCache::default();
        self
    }

    /// Number of replicated index copies per cycle.
    pub fn segments(&self) -> u32 {
        self.segments
    }

    /// Slots one index copy occupies for `n` items.
    pub fn index_copy_slots(&self, n: usize) -> u64 {
        (n as u64 * u64::from(self.sizes.key + self.sizes.ptr))
            .div_ceil(u64::from(self.sizes.bucket))
    }

    /// The (index copy, data chunk) pairs of a bcast of `n` items, as
    /// where the copy begins — counted from the start of the data
    /// segment — and how many items the chunk after it holds: `⌈n / m⌉`,
    /// the last chunk fewer. Also the data segment's length.
    fn chunks(&self, n: usize) -> (Vec<(u64, u64)>, u64) {
        let ipb = u64::from(self.items_per_bucket);
        let idx_slots = self.index_copy_slots(n);
        let per_chunk = (n as u64).div_ceil(u64::from(self.segments)).max(1);
        let mut chunks = Vec::with_capacity(self.segments as usize);
        let mut rel = 0;
        for first in (0..n as u64).step_by(per_chunk as usize) {
            let items = per_chunk.min(n as u64 - first);
            chunks.push((rel, items));
            rel += idx_slots + items.div_ceil(ipb);
        }
        (chunks, rel)
    }

    /// Assembles the bcast: control, then `m` repetitions of
    /// (index copy, data chunk). `records` must be sorted by item id.
    ///
    /// # Panics
    /// Panics if `records` is an unsorted `Vec`.
    pub fn assemble(
        &self,
        cycle: Cycle,
        control: ControlInfo,
        records: impl Into<RecordColumn>,
    ) -> Bcast {
        let records = records.into();
        let control_slots = control.slots(self.sizes.bucket, self.sizes.key, self.sizes.tid);
        let n = records.len();
        let (chunks, data_slots) = self.chunks(n);
        let rows = self.rows.rows(n, control_slots, |base| {
            let ipb = u64::from(self.items_per_bucket);
            let data_at = base + self.index_copy_slots(n);
            let slots = chunks
                .iter()
                .flat_map(|&(at, items)| (0..items).map(move |i| data_at + at + i / ipb));
            Occurrences::new(base, one_slot_each(n), slots.collect())
        });
        let index_slots = chunks.iter().map(|&(at, _)| control_slots + at).collect();
        Bcast::from_parts(
            cycle,
            control,
            control_slots,
            data_slots,
            0,
            rows,
            records,
            OldVersions::default(),
            None,
        )
        .with_index_slots(index_slots)
    }
}

/// The multiversion overflow organization (Figure 2b).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiversionOverflow {
    items_per_bucket: u32,
    sizes: SizeParams,
    rows: RowCache,
}

impl MultiversionOverflow {
    /// Creates the organization packing `items_per_bucket` current records
    /// per bucket. Old versions are packed at the same density into the
    /// overflow area.
    ///
    /// # Panics
    /// Panics if `items_per_bucket` is zero.
    pub fn new(items_per_bucket: u32) -> Self {
        assert!(items_per_bucket > 0, "items_per_bucket must be positive");
        MultiversionOverflow {
            items_per_bucket,
            sizes: SizeParams::default(),
            rows: RowCache::default(),
        }
    }

    /// Overrides the abstract size parameters.
    #[must_use]
    pub fn with_sizes(mut self, sizes: SizeParams) -> Self {
        self.sizes = sizes;
        self
    }

    /// Assembles the bcast: fixed-position data segment followed by
    /// overflow buckets holding `old_versions`, in item order. The
    /// records of items with old versions gain overflow pointers; no
    /// other record is touched, so a caller reusing a column clears last
    /// cycle's pointers itself.
    ///
    /// # Panics
    /// Panics if `records` is a `Vec` not sorted by item id, or if
    /// `old_versions` has items out of order or twice, a chain for an item
    /// not on `records` or a chain not strictly newest first; so does
    /// [`MultiversionClustered::assemble`].
    pub fn assemble(
        &self,
        cycle: Cycle,
        control: ControlInfo,
        records: impl Into<RecordColumn>,
        mut old_versions: OldVersions,
    ) -> Bcast {
        let mut records = records.into();
        old_versions.check_against(&records);
        let control_slots = control.slots(self.sizes.bucket, self.sizes.key, self.sizes.tid);
        let ipb = u64::from(self.items_per_bucket);
        let n = records.len();
        let data_slots = (n as u64).div_ceil(ipb);
        let overflow_start = control_slots + data_slots;

        // Lay out the overflow area, then point every record with old
        // versions at its chain's first entry.
        for (k, (slot, _)) in (0u64..).zip(&mut old_versions.entries) {
            *slot = overflow_start + k / ipb;
        }
        let ptrs = old_versions.items.iter().zip(&old_versions.start);
        records.set_overflow_ptrs(ptrs.map(|(&item, &first)| (item, u64::from(first))));
        let rows = self
            .rows
            .rows(n, control_slots, |base| packed(n, ipb, base));
        Bcast::from_parts(
            cycle,
            control,
            control_slots,
            data_slots,
            (old_versions.entries.len() as u64).div_ceil(ipb),
            rows,
            records,
            old_versions,
            None,
        )
    }
}

/// The multiversion clustered organization (Figure 2a): all versions of an
/// item adjacent, a rebuilt directory broadcast every cycle.
///
/// Entries (current or old version) occupy one slot each; the
/// `items_per_bucket` packing of the fixed-position organizations does not
/// apply because entries per item vary.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiversionClustered {
    sizes: SizeParams,
}

impl MultiversionClustered {
    /// Creates the organization.
    pub fn new() -> Self {
        MultiversionClustered {
            sizes: SizeParams::default(),
        }
    }

    /// Overrides the abstract size parameters.
    #[must_use]
    pub fn with_sizes(mut self, sizes: SizeParams) -> Self {
        self.sizes = sizes;
        self
    }

    /// Assembles the bcast: for each item (in id order) the current
    /// version followed by its old versions, with the directory appended
    /// to the control segment.
    ///
    /// # Panics
    /// Panics on the input [`MultiversionOverflow::assemble`] panics on.
    pub fn assemble(
        &self,
        cycle: Cycle,
        control: ControlInfo,
        records: impl Into<RecordColumn>,
        mut old_versions: OldVersions,
    ) -> Bcast {
        let records = records.into();
        old_versions.check_against(&records);

        // Positions relative to the start of the data segment first: where
        // that starts depends on the directory these positions fill. One
        // walk pairs the records with the chains, both in item order.
        let mut rel = 0u64;
        let mut dir_entries = Vec::with_capacity(records.len());
        let mut occ_slots = Vec::with_capacity(records.len());
        let mut chains = old_versions
            .items
            .iter()
            .zip(&old_versions.start)
            .peekable();
        let mut old_slots = old_versions.entries.iter_mut().map(|(slot, _)| slot);
        for rec in records.as_slice() {
            dir_entries.push((rec.item(), rel));
            occ_slots.push(rel);
            rel += 1;
            if let Some((_, &first)) = chains.next_if(|&(&item, _)| item == rec.item()) {
                // the last chain runs to the end of the entries
                let end = chains
                    .peek()
                    .map_or(usize::MAX, |&(_, &next)| next as usize);
                for slot in old_slots.by_ref().take(end.saturating_sub(first as usize)) {
                    *slot = rel;
                    rel += 1;
                }
            }
        }
        let data_slots = rel;

        // The directory itself is broadcast with the control segment; its
        // entries point at data-segment offsets, which the client resolves
        // against `data_start`.
        let directory = Directory::new(cycle, dir_entries);
        let control_slots = control.slots(self.sizes.bucket, self.sizes.key, self.sizes.tid)
            + directory.slots_on_air(self.sizes.bucket, self.sizes.key, self.sizes.ptr);

        let old_slots = old_versions.entries.iter_mut().map(|(slot, _)| slot);
        for slot in occ_slots.iter_mut().chain(old_slots) {
            *slot += control_slots;
        }
        let rows = Occurrences::new(control_slots, one_slot_each(records.len()), occ_slots);
        Bcast::from_parts(
            cycle,
            control,
            control_slots,
            data_slots,
            0,
            Arc::new(rows),
            records,
            old_versions,
            Some(directory),
        )
    }
}

impl Default for MultiversionClustered {
    fn default() -> Self {
        MultiversionClustered::new()
    }
}

/// One virtual disk of a [`BroadcastDisks`] organization: how many of the
/// (id-ordered) items it holds and its relative spin speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskSpec {
    /// Number of consecutive items (taken in id order) on this disk.
    pub items: u32,
    /// Relative broadcast frequency (1 = once per major cycle).
    pub rel_freq: u32,
}

/// The broadcast-disk organization of Acharya et al., referenced by the
/// paper's §7 as the non-flat extension: items are partitioned onto disks
/// spinning at different relative frequencies, and the bcast interleaves
/// fixed-size chunks so that a disk with relative frequency `f` appears
/// `f` times per major cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct BroadcastDisks {
    disks: Vec<DiskSpec>,
    sizes: SizeParams,
    rows: RowCache,
}

impl BroadcastDisks {
    /// Creates the organization from disk specifications. Items are
    /// assigned to disks in id order (put the hot range first).
    ///
    /// # Panics
    /// Panics if no disk is given, or any disk has zero items or zero
    /// frequency.
    pub fn new(disks: Vec<DiskSpec>) -> Self {
        assert!(!disks.is_empty(), "at least one disk required");
        assert!(
            disks.iter().all(|d| d.items > 0 && d.rel_freq > 0),
            "disks must have items and a positive frequency"
        );
        BroadcastDisks {
            disks,
            sizes: SizeParams::default(),
            rows: RowCache::default(),
        }
    }

    /// Overrides the abstract size parameters.
    #[must_use]
    pub fn with_sizes(mut self, sizes: SizeParams) -> Self {
        self.sizes = sizes;
        self
    }

    /// Total items the disks expect.
    pub fn expected_items(&self) -> u32 {
        self.disks.iter().map(|d| d.items).sum()
    }

    /// Assembles the bcast using the standard chunk-interleaving schedule:
    /// with `L = lcm(rel_freq)`, disk `i` is split into `L / rel_freq_i`
    /// chunks and minor cycle `j` broadcasts chunk `j mod chunks_i` of
    /// every disk.
    ///
    /// # Panics
    /// Panics if `records` is a `Vec` not sorted by item id or does not
    /// match [`BroadcastDisks::expected_items`].
    pub fn assemble(
        &self,
        cycle: Cycle,
        control: ControlInfo,
        records: impl Into<RecordColumn>,
    ) -> Bcast {
        let records = records.into();
        assert_eq!(
            records.len(),
            self.expected_items() as usize,
            "record count must match the disk partitioning"
        );
        let control_slots = control.slots(self.sizes.bucket, self.sizes.key, self.sizes.tid);

        let l = self
            .disks
            .iter()
            .map(|d| u64::from(d.rel_freq))
            .fold(1u64, lcm);
        // Disk `i` is split into `l / rel_freq_i` chunks of `chunk_size_i`
        // slots (a short final chunk is padded), and every minor cycle
        // airs one chunk of each disk, so it is `minor_len` slots long.
        let chunking = |d: &DiskSpec| {
            let num_chunks = l / u64::from(d.rel_freq);
            (num_chunks, u64::from(d.items).div_ceil(num_chunks))
        };
        let minor_len: u64 = self.disks.iter().map(|d| chunking(d).1).sum();

        // The item at position `p` of its disk sits at offset
        // `p % chunk_size` of chunk `p / chunk_size`, which airs in the
        // minor cycles congruent to it modulo `num_chunks`.
        let rows = self.rows.rows(records.len(), control_slots, |base| {
            let mut occ_start = Vec::with_capacity(records.len() + 1);
            let mut occ_slots = Vec::with_capacity(records.len());
            let mut disk_offset = base;
            for d in &self.disks {
                let (num_chunks, chunk_size) = chunking(d);
                for p in 0..u64::from(d.items) {
                    occ_start.push(u32::try_from(occ_slots.len()).unwrap_or(u32::MAX));
                    let minors =
                        (0..u64::from(d.rel_freq)).map(|k| p / chunk_size + k * num_chunks);
                    occ_slots.extend(minors.map(|m| disk_offset + m * minor_len + p % chunk_size));
                }
                disk_offset += chunk_size;
            }
            occ_start.push(u32::try_from(occ_slots.len()).unwrap_or(u32::MAX));
            Occurrences::new(base, occ_start, occ_slots)
        });
        Bcast::from_parts(
            cycle,
            control,
            control_slots,
            l * minor_len,
            0,
            rows,
            records,
            OldVersions::default(),
            None,
        )
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::ItemRecord;
    use bpush_types::TxnId;

    fn records(n: u32) -> Vec<ItemRecord> {
        (0..n)
            .map(|i| ItemRecord::new(ItemId::new(i), ItemValue::initial(), None))
            .collect()
    }

    #[test]
    fn flat_packs_items_per_bucket() {
        let b = Flat::new(4).assemble(Cycle::ZERO, ControlInfo::empty(Cycle::ZERO), records(10));
        assert_eq!(b.data_slots(), 3);
        assert_eq!(b.slot_of_current(ItemId::new(0)), Some(0));
        assert_eq!(b.slot_of_current(ItemId::new(3)), Some(0));
        assert_eq!(b.slot_of_current(ItemId::new(4)), Some(1));
        assert_eq!(b.slot_of_current(ItemId::new(9)), Some(2));
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn flat_rejects_unsorted_records() {
        let mut recs = records(3);
        recs.swap(0, 1);
        let _ = Flat::new(1).assemble(Cycle::ZERO, ControlInfo::empty(Cycle::ZERO), recs);
    }

    fn old_chain(cycles: &[u64]) -> Vec<ItemValue> {
        cycles
            .iter()
            .map(|&c| {
                if c == 0 {
                    ItemValue::initial()
                } else {
                    ItemValue::written_by(TxnId::new(Cycle::new(c - 1), 0))
                }
            })
            .collect()
    }

    /// The column of `chains`, in the order given, unchecked.
    fn old_column(chains: &[(u32, &[u64])]) -> OldVersions {
        let mut old = OldVersions::default();
        for &(item, cycles) in chains {
            old.add_chain(ItemId::new(item), old_chain(cycles));
        }
        old
    }

    fn overflow(old: OldVersions) -> Bcast {
        let c = Cycle::new(5);
        MultiversionOverflow::new(2).assemble(c, ControlInfo::empty(c), records(5), old)
    }

    fn clustered(old: OldVersions) -> Bcast {
        let c = Cycle::new(5);
        MultiversionClustered::new().assemble(c, ControlInfo::empty(c), records(5), old)
    }

    // Both multiversion layouts reject the same malformed columns.
    const UNSORTED: &[(u32, &[u64])] = &[(3, &[2]), (1, &[2])];
    const TWICE: &[(u32, &[u64])] = &[(1, &[3]), (1, &[2])];
    const OFF_AIR: &[(u32, &[u64])] = &[(1, &[2]), (7, &[2])];
    const OLDEST_FIRST: &[(u32, &[u64])] = &[(1, &[0, 2])];
    const REPEATED: &[(u32, &[u64])] = &[(1, &[2, 2])];

    #[test]
    #[should_panic(expected = "sorted by item id")]
    fn overflow_rejects_unsorted_old_versions() {
        overflow(old_column(UNSORTED));
    }

    #[test]
    #[should_panic(expected = "sorted by item id")]
    fn clustered_rejects_unsorted_old_versions() {
        clustered(old_column(UNSORTED));
    }

    #[test]
    #[should_panic(expected = "sorted by item id")]
    fn overflow_rejects_two_chains_for_one_item() {
        overflow(old_column(TWICE));
    }

    #[test]
    #[should_panic(expected = "sorted by item id")]
    fn clustered_rejects_two_chains_for_one_item() {
        clustered(old_column(TWICE));
    }

    #[test]
    #[should_panic(expected = "not on air")]
    fn overflow_rejects_a_chain_off_the_column() {
        overflow(old_column(OFF_AIR));
    }

    #[test]
    #[should_panic(expected = "not on air")]
    fn clustered_rejects_a_chain_off_the_column() {
        clustered(old_column(OFF_AIR));
    }

    #[test]
    #[should_panic(expected = "newest first")]
    fn overflow_rejects_a_chain_oldest_first() {
        overflow(old_column(OLDEST_FIRST));
    }

    #[test]
    #[should_panic(expected = "newest first")]
    fn clustered_rejects_a_chain_oldest_first() {
        clustered(old_column(OLDEST_FIRST));
    }

    #[test]
    #[should_panic(expected = "newest first")]
    fn overflow_rejects_a_repeated_version() {
        overflow(old_column(REPEATED));
    }

    #[test]
    #[should_panic(expected = "newest first")]
    fn clustered_rejects_a_repeated_version() {
        clustered(old_column(REPEATED));
    }

    /// An empty chain adds nothing: the item has no old version and no
    /// overflow pointer, in either layout.
    #[test]
    fn an_empty_chain_adds_nothing() {
        let old = old_column(&[(1, &[]), (2, &[3]), (4, &[])]);
        assert_eq!(old, old_column(&[(2, &[3])]));
        for b in [overflow(old.clone()), clustered(old)] {
            assert!(b.old_versions_of(ItemId::new(1)).is_empty());
            assert_eq!(b.old_versions_of(ItemId::new(2)).len(), 1);
            assert_eq!(b.current(ItemId::new(4)).unwrap().overflow_ptr(), None);
        }
    }

    #[test]
    fn overflow_layout_places_old_versions_at_end() {
        let mut recs = records(5);
        recs[2] = ItemRecord::new(
            ItemId::new(2),
            ItemValue::written_by(TxnId::new(Cycle::new(4), 0)),
            None,
        );
        let old = old_column(&[(2, &[3, 0]), (4, &[2])]);
        let b = MultiversionOverflow::new(1).assemble(
            Cycle::new(5),
            ControlInfo::empty(Cycle::new(5)),
            recs,
            old,
        );
        assert_eq!(b.data_slots(), 5);
        assert_eq!(b.overflow_slots(), 3);
        assert_eq!(b.total_slots(), 8);
        // fixed positions preserved
        assert_eq!(b.slot_of_current(ItemId::new(2)), Some(2));
        // old versions in overflow area, most recent first
        let chain = b.old_versions_of(ItemId::new(2));
        assert_eq!(chain.len(), 2);
        assert!(chain[0].0 >= 5 && chain[1].0 >= 5);
        assert!(chain[0].1.version() > chain[1].1.version());
        // the record carries an overflow pointer
        assert_eq!(b.current(ItemId::new(2)).unwrap().overflow_ptr(), Some(0));
        assert_eq!(b.current(ItemId::new(4)).unwrap().overflow_ptr(), Some(2));
        assert_eq!(b.current(ItemId::new(0)).unwrap().overflow_ptr(), None);
    }

    #[test]
    fn clustered_layout_shifts_positions_and_indexes() {
        let mut recs = records(4);
        recs[1] = ItemRecord::new(
            ItemId::new(1),
            ItemValue::written_by(TxnId::new(Cycle::new(2), 0)),
            None,
        );
        let old = old_column(&[(1, &[1])]);
        let b = MultiversionClustered::new().assemble(
            Cycle::new(3),
            ControlInfo::empty(Cycle::new(3)),
            recs,
            old,
        );
        // data: x0, x1, x1(old), x2, x3 -> 5 slots
        assert_eq!(b.data_slots(), 5);
        let dir = b.directory().expect("clustered broadcasts a directory");
        assert_eq!(dir.len(), 4);
        // item 2 shifted one slot right of where flat would put it
        let base = b.data_start();
        assert_eq!(b.slot_of_current(ItemId::new(1)), Some(base + 1));
        assert_eq!(b.slot_of_current(ItemId::new(2)), Some(base + 3));
        // old version of item 1 sits right after its current version
        assert_eq!(b.old_versions_of(ItemId::new(1))[0].0, base + 2);
        // directory agrees with actual positions
        assert_eq!(dir.slot_of(ItemId::new(2)), Some(3));
        // control segment includes the directory
        assert!(b.control_slots() > 0);
    }

    #[test]
    fn disks_hot_items_appear_more_often() {
        let org = BroadcastDisks::new(vec![
            DiskSpec {
                items: 2,
                rel_freq: 2,
            },
            DiskSpec {
                items: 4,
                rel_freq: 1,
            },
        ]);
        assert_eq!(org.expected_items(), 6);
        let b = org.assemble(Cycle::ZERO, ControlInfo::empty(Cycle::ZERO), records(6));
        // L = 2 minor cycles; hot disk (1 chunk of 2) appears twice; cold
        // disk split into 2 chunks of 2.
        assert_eq!(b.occurrences_of(ItemId::new(0)).len(), 2);
        assert_eq!(b.occurrences_of(ItemId::new(5)).len(), 1);
        // schedule: [0,1, 2,3] [0,1, 4,5] -> 8 slots
        assert_eq!(b.data_slots(), 8);
        assert_eq!(b.occurrences_of(ItemId::new(0)), &[0, 4]);
        assert_eq!(b.occurrences_of(ItemId::new(4)), &[6]);
    }

    #[test]
    fn disks_mean_wait_is_lower_for_hot_items() {
        // With frequency 2, expected wait for a hot item is ~1/4 of the
        // major cycle vs ~1/2 for a cold item.
        let org = BroadcastDisks::new(vec![
            DiskSpec {
                items: 4,
                rel_freq: 4,
            },
            DiskSpec {
                items: 16,
                rel_freq: 1,
            },
        ]);
        let b = org.assemble(Cycle::ZERO, ControlInfo::empty(Cycle::ZERO), records(20));
        let mean_wait = |item: ItemId| -> f64 {
            let occ = b.occurrences_of(item);
            let total = b.total_slots();
            // average over all starting slots of distance to next occurrence
            let mut sum = 0u64;
            for start in 0..total {
                let d = occ
                    .iter()
                    .map(|&s| {
                        if s >= start {
                            s - start
                        } else {
                            s + total - start
                        }
                    })
                    .min()
                    .unwrap();
                sum += d;
            }
            sum as f64 / total as f64
        };
        assert!(mean_wait(ItemId::new(0)) < mean_wait(ItemId::new(19)) / 2.0);
    }

    #[test]
    #[should_panic(expected = "match the disk partitioning")]
    fn disks_reject_wrong_item_count() {
        let org = BroadcastDisks::new(vec![DiskSpec {
            items: 3,
            rel_freq: 1,
        }]);
        let _ = org.assemble(Cycle::ZERO, ControlInfo::empty(Cycle::ZERO), records(2));
    }

    #[test]
    fn indexed_flat_interleaves_index_copies() {
        let org = IndexedFlat::new(4, 1);
        assert_eq!(org.segments(), 4);
        let b = org.assemble(Cycle::ZERO, ControlInfo::empty(Cycle::ZERO), records(20));
        assert_eq!(b.index_slots().len(), 4);
        let idx = org.index_copy_slots(20);
        // segments are evenly spread: chunk of 5 items after each copy
        let expected: Vec<u64> = (0..4).map(|i| i * (idx + 5)).collect();
        assert_eq!(b.index_slots(), expected.as_slice());
        // all items present, all within the data region
        for i in 0..20u32 {
            let s = b.slot_of_current(ItemId::new(i)).unwrap();
            assert!(s < b.total_slots());
        }
        // next_index_slot wraps correctly
        assert_eq!(b.next_index_slot(0), Some(expected[0]));
        assert_eq!(b.next_index_slot(expected[1] + 1), Some(expected[2]));
        assert_eq!(b.next_index_slot(expected[3] + 1), None);
        // total length = data + 4 index copies
        assert_eq!(b.total_slots(), 20 + 4 * idx);
    }

    #[test]
    fn indexed_flat_single_segment_is_flat_plus_one_index() {
        let org = IndexedFlat::new(1, 1);
        let b = org.assemble(Cycle::ZERO, ControlInfo::empty(Cycle::ZERO), records(10));
        assert_eq!(b.index_slots().len(), 1);
        assert_eq!(b.total_slots(), 10 + org.index_copy_slots(10));
    }

    #[test]
    #[should_panic(expected = "index segment")]
    fn indexed_flat_rejects_zero_segments() {
        let _ = IndexedFlat::new(0, 1);
    }

    #[test]
    fn lcm_gcd_helpers() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(1, 7), 7);
    }
}
