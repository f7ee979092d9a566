//! The server's multiversion database.

use bpush_types::{Cycle, ItemId, ItemValue, TxnId};

/// The server database: every item's committed values, newest last.
///
/// In plain (single-version) operation only the current value matters; in
/// multiversion operation (§3.2) the store retains enough superseded
/// values to broadcast the previous `V` cycles' worth, and
/// [`MultiversionStore::gc`] discards the rest (the paper's "at each
/// cycle `k`, the server discards the `k − S` version") from the chains
/// the server names — the items written `S` cycles back.
///
/// # On-air retention rule
///
/// A superseded value must stay on air at cycle `n` while a transaction
/// with span ≤ V could still need it. A value is needed by a transaction
/// whose first read happened at some cycle `c_0 ≥ n − V + 1` and that is
/// the largest version `≤ c_0`; that is exactly the case when the value
/// was superseded during one of the last `V − 1` cycles, i.e. its
/// successor's version exceeds `n − V + 1`.
#[derive(Debug, Clone)]
pub struct MultiversionStore {
    /// `versions[item][..]`, ascending by version; last is current.
    versions: Vec<Vec<ItemValue>>,
}

impl MultiversionStore {
    /// Creates a database of `n_items` items holding their initial load.
    ///
    /// # Panics
    /// Panics if `n_items` is zero.
    pub fn new(n_items: u32) -> Self {
        assert!(n_items > 0, "database must be non-empty");
        MultiversionStore {
            versions: vec![vec![ItemValue::initial()]; n_items as usize],
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// Whether the store is empty (never true; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Whether `item` exists.
    pub fn contains(&self, item: ItemId) -> bool {
        item.as_usize() < self.versions.len()
    }

    /// The current value of `item`.
    ///
    /// # Panics
    /// Panics if `item` is out of range.
    pub fn current(&self, item: ItemId) -> ItemValue {
        *self.versions[item.as_usize()]
            .last()
            // lint: allow(panic) — every chain is seeded with the initial value at construction
            .expect("every item has at least its initial value")
    }

    /// All retained values of `item`, ascending by version (current last).
    ///
    /// # Panics
    /// Panics if `item` is out of range.
    pub fn retained(&self, item: ItemId) -> &[ItemValue] {
        &self.versions[item.as_usize()]
    }

    /// Applies a committed write of `writer` to `item`.
    ///
    /// # Panics
    /// Panics if `item` is out of range, or (debug only) if the write is
    /// not newer than the current value — the commit pipeline feeds writes
    /// in serial order.
    pub fn apply_write(&mut self, item: ItemId, writer: TxnId) {
        let value = ItemValue::written_by(writer);
        let chain = &mut self.versions[item.as_usize()];
        debug_assert!(
            chain
                .last()
                .map_or(true, |last| { last.writer().map_or(true, |w| w < writer) }),
            "writes must arrive in serial order"
        );
        if let Some(last) = chain.last() {
            if last.version() == value.version() {
                // Two writes in the same cycle: only the later one is ever
                // broadcast (the snapshot reflects cycle boundaries), so
                // replace in place.
                // lint: allow(panic) — every chain is seeded with the initial value at construction
                *chain.last_mut().expect("nonempty") = value;
                return;
            }
        }
        chain.push(value);
    }

    /// The superseded values of `item` that must be broadcast at cycle
    /// `now` by a server retaining `retain` old cycles (see the type-level
    /// retention rule), most recent first.
    ///
    /// # Panics
    /// Panics if `item` is out of range.
    pub fn on_air_old_versions(&self, item: ItemId, now: Cycle, retain: u32) -> Vec<ItemValue> {
        let chain = &self.versions[item.as_usize()];
        let mut out = Vec::new();
        // skip the current value (last); walk older values newest-first
        for i in (0..chain.len().saturating_sub(1)).rev() {
            let successor = chain[i + 1];
            // still needed iff superseded within the last `retain - 1`
            // cycles: successor.version > now - retain + 1
            let needed = u64::from(retain) > 1
                && successor
                    .version()
                    .number()
                    .saturating_add(u64::from(retain))
                    > now.number().saturating_add(1);
            if needed {
                out.push(chain[i]);
            } else {
                break; // older values were superseded even earlier
            }
        }
        out
    }

    /// Garbage-collects, in the chains of `items`, the values no longer
    /// needed at cycle `now` by a server retaining `retain` old cycles
    /// (`retain` ≤ 1 keeps no old value). The current value always
    /// survives.
    ///
    /// A value superseded in cycle `w` goes off air at cycle
    /// `w + max(retain, 1)`, so a caller collecting once per cycle
    /// passes the items written in cycle `now − max(retain, 1)` — the
    /// only chains with a value that left the air at `now` — and keeps
    /// the store exactly as a sweep of every chain would.
    ///
    /// # Panics
    /// Panics if an item is out of range.
    pub fn gc(&mut self, now: Cycle, retain: u32, items: impl IntoIterator<Item = ItemId>) {
        for item in items {
            gc_chain(&mut self.versions[item.as_usize()], now, retain);
        }
    }

    /// [`MultiversionStore::gc`] over every chain: the oracle the
    /// incremental collection is tested against.
    #[cfg(test)]
    pub(crate) fn gc_sweep(&mut self, now: Cycle, retain: u32) {
        for chain in &mut self.versions {
            gc_chain(chain, now, retain);
        }
    }

    /// Iterates over `(item, current value)` in item order.
    pub fn iter_current(&self) -> impl Iterator<Item = (ItemId, ItemValue)> + '_ {
        self.versions
            .iter()
            .enumerate()
            // lint: allow(panic, casts) — every chain is seeded with the initial value at construction; the item count is bounded by broadcast_size: u32
            .map(|(i, chain)| (ItemId::new(i as u32), *chain.last().expect("nonempty")))
    }

    /// Total number of retained values across all items (used by space
    /// accounting tests).
    pub fn total_retained(&self) -> usize {
        self.versions.iter().map(Vec::len).sum()
    }
}

/// Drops the values of `chain` (ascending, current last) no longer needed
/// at cycle `now` by a server retaining `retain` old cycles.
fn gc_chain(chain: &mut Vec<ItemValue>, now: Cycle, retain: u32) {
    if chain.len() <= 1 {
        return;
    }
    // keep index i (non-current) iff chain[i+1].version + retain > now + 1
    let cutoff = chain.len() - 1;
    let mut first_kept = cutoff;
    for i in (0..cutoff).rev() {
        let needed = u64::from(retain) > 1
            && chain[i + 1]
                .version()
                .number()
                .saturating_add(u64::from(retain))
                > now.number().saturating_add(1);
        if needed {
            first_kept = i;
        } else {
            break;
        }
    }
    if first_kept > 0 {
        chain.drain(..first_kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(cycle: u64, seq: u32) -> TxnId {
        TxnId::new(Cycle::new(cycle), seq)
    }

    #[test]
    fn initial_state() {
        let db = MultiversionStore::new(5);
        assert_eq!(db.len(), 5);
        assert!(!db.is_empty());
        assert!(db.contains(ItemId::new(4)));
        assert!(!db.contains(ItemId::new(5)));
        assert_eq!(db.current(ItemId::new(0)), ItemValue::initial());
        assert_eq!(db.total_retained(), 5);
    }

    #[test]
    fn writes_stack_versions() {
        let mut db = MultiversionStore::new(2);
        let x = ItemId::new(0);
        db.apply_write(x, txn(0, 0));
        db.apply_write(x, txn(2, 1));
        assert_eq!(db.current(x).writer(), Some(txn(2, 1)));
        assert_eq!(db.retained(x).len(), 3);
        assert_eq!(db.retained(x)[0], ItemValue::initial());
        // untouched item unchanged
        assert_eq!(db.current(ItemId::new(1)), ItemValue::initial());
    }

    #[test]
    fn same_cycle_rewrite_replaces() {
        let mut db = MultiversionStore::new(1);
        let x = ItemId::new(0);
        db.apply_write(x, txn(1, 0));
        db.apply_write(x, txn(1, 3));
        assert_eq!(db.retained(x).len(), 2, "one version per cycle");
        assert_eq!(db.current(x).writer(), Some(txn(1, 3)));
    }

    #[test]
    fn on_air_old_versions_window() {
        let mut db = MultiversionStore::new(1);
        let x = ItemId::new(0);
        db.apply_write(x, txn(0, 0)); // version 1, supersedes initial at cycle 1
        db.apply_write(x, txn(3, 0)); // version 4, supersedes v1 at cycle 4
        db.apply_write(x, txn(5, 0)); // version 6 (current)

        // At cycle 6 with retain = 3: a value is on air iff its successor's
        // version > 6 - 3 + 1 = 4. v4's successor is v6 (> 4): on air.
        // v1's successor is v4 (not > 4): off air, and so is v0.
        let on_air = db.on_air_old_versions(x, Cycle::new(6), 3);
        assert_eq!(on_air.len(), 1);
        assert_eq!(on_air[0].version(), Cycle::new(4));

        // With a wide window everything is on air, most recent first.
        let all = db.on_air_old_versions(x, Cycle::new(6), 100);
        assert_eq!(all.len(), 3);
        assert!(all[0].version() > all[1].version());
        assert!(all[1].version() > all[2].version());

        // retain = 1 keeps nothing old on air.
        assert!(db.on_air_old_versions(x, Cycle::new(6), 1).is_empty());
    }

    #[test]
    fn gc_discards_exactly_off_air_values() {
        let mut db = MultiversionStore::new(1);
        let x = ItemId::new(0);
        db.apply_write(x, txn(0, 0));
        db.apply_write(x, txn(3, 0));
        db.apply_write(x, txn(5, 0));
        db.gc(Cycle::new(6), 3, [x]);
        // only v4 (still on air) and the current v6 remain
        assert_eq!(db.retained(x).len(), 2);
        assert_eq!(db.retained(x)[0].version(), Cycle::new(4));
        // gc is idempotent
        db.gc(Cycle::new(6), 3, [x]);
        assert_eq!(db.retained(x).len(), 2);
        // advancing time eventually drops v4 too
        db.gc(Cycle::new(9), 3, [x]);
        assert_eq!(db.retained(x).len(), 1);
    }

    #[test]
    fn gc_retain_one_keeps_only_current() {
        let mut db = MultiversionStore::new(1);
        let x = ItemId::new(0);
        db.apply_write(x, txn(0, 0));
        db.apply_write(x, txn(1, 0));
        db.gc(Cycle::new(2), 1, [x]);
        assert_eq!(db.retained(x).len(), 1);
        assert_eq!(db.current(x).writer(), Some(txn(1, 0)));
    }

    #[test]
    fn iter_current_in_item_order() {
        let mut db = MultiversionStore::new(3);
        db.apply_write(ItemId::new(1), txn(0, 0));
        let items: Vec<ItemId> = db.iter_current().map(|(x, _)| x).collect();
        assert_eq!(items, vec![ItemId::new(0), ItemId::new(1), ItemId::new(2)]);
        let (_, v) = db.iter_current().nth(1).unwrap();
        assert_eq!(v.writer(), Some(txn(0, 0)));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_items_rejected() {
        let _ = MultiversionStore::new(0);
    }
}
