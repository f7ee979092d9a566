//! Sorted-slice readsets for the validation hot paths.
//!
//! Every client method keeps, per active query, the set of items the
//! query has read, and intersects it once per broadcast cycle with the
//! invalidation (and, for SGT, augmented) report. A sorted, deduplicated
//! `Vec<ItemId>` makes that intersection a galloping merge over two
//! contiguous arrays (`InvalidationReport::any_stale`,
//! `AugmentedReport::matches_in` in `bpush-broadcast`) instead of one
//! ordered-set probe per report entry. The merge is the only probe: it
//! is linear in the shorter side and logarithmic in the gaps, so a
//! report disjoint from the readset costs a few gallops, not a scan.

// bpush-lint: sans_io — protocol core: readsets are pure sorted-slice arithmetic, no clocks/threads/files/sockets
use bpush_types::ItemId;

/// A query's readset: the items it has read so far, sorted ascending and
/// deduplicated.
///
/// Queries read one item per broadcast slot, so insertion is rare
/// compared to the per-cycle report intersections; the `Vec` keeps the
/// hot side contiguous and allocation-free. Iteration order is the item
/// order — fully deterministic, like the `BTreeSet` it replaces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadSet {
    items: Vec<ItemId>,
}

impl ReadSet {
    /// An empty readset.
    pub fn new() -> Self {
        ReadSet::default()
    }

    /// Records a read of `item`. Returns `true` if the item is new.
    pub fn insert(&mut self, item: ItemId) -> bool {
        match self.items.binary_search(&item) {
            Ok(_) => false,
            Err(pos) => {
                self.items.insert(pos, item);
                true
            }
        }
    }

    /// Whether `item` has been read.
    pub fn contains(&self, item: ItemId) -> bool {
        self.items.binary_search(&item).is_ok()
    }

    /// Number of distinct items read.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing has been read yet.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The items as a sorted slice — the form the report-intersection
    /// primitives in `bpush-broadcast` take.
    pub fn as_slice(&self) -> &[ItemId] {
        &self.items
    }

    /// Iterates the items in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.items.iter().copied()
    }
}

impl FromIterator<ItemId> for ReadSet {
    fn from_iter<I: IntoIterator<Item = ItemId>>(iter: I) -> Self {
        let mut set = ReadSet::new();
        for item in iter {
            set.insert(item);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_keeps_sorted_and_deduped() {
        let mut s = ReadSet::new();
        assert!(s.insert(ItemId::new(5)));
        assert!(s.insert(ItemId::new(1)));
        assert!(s.insert(ItemId::new(3)));
        assert!(!s.insert(ItemId::new(5)));
        assert_eq!(s.len(), 3);
        assert_eq!(
            s.as_slice(),
            &[ItemId::new(1), ItemId::new(3), ItemId::new(5)]
        );
        assert!(s.contains(ItemId::new(3)));
        assert!(!s.contains(ItemId::new(2)));
    }

    #[test]
    fn empty_and_from_iter() {
        let s = ReadSet::new();
        assert!(s.is_empty());
        let s: ReadSet = [ItemId::new(9), ItemId::new(9), ItemId::new(0)]
            .into_iter()
            .collect();
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            [ItemId::new(0), ItemId::new(9)]
        );
    }

    /// Protocol renderings — mc state hashes, trace snapshots — embed a
    /// readset's `Debug` text, so it is pinned here; equality is on the
    /// item set, whatever order the reads arrived in.
    #[test]
    fn debug_text_and_insertion_order_equality() {
        let a: ReadSet = [ItemId::new(1), ItemId::new(70_000), ItemId::new(9)]
            .into_iter()
            .collect();
        let mut b = ReadSet::new();
        for i in [9, 70_000, 1, 9] {
            b.insert(ItemId::new(i));
        }
        assert_eq!(a, b);
        assert_eq!(
            format!("{a:?}"),
            "ReadSet { items: [ItemId(1), ItemId(9), ItemId(70000)] }"
        );
        assert_ne!(a, [ItemId::new(1)].into_iter().collect());
    }
}
