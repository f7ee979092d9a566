//! The ground-truth write log used for after-the-fact serializability
//! checking.
//!
//! The simulation's correctness tests verify the paper's theorems: every
//! committed read-only transaction must have read a subset of *some*
//! consistent database state — equivalently, there must exist a point in
//! the server's (serial) history at which all values it read were
//! simultaneously current. [`WriteHistory`] records every committed write
//! forever (it is test infrastructure, never broadcast) and answers the
//! question that check needs: *which write superseded this value, and
//! when?*

use std::collections::BTreeMap;

use bpush_types::{ItemId, ItemValue};

/// Complete write log: for every item, all committed values in serial
/// order (the initial load first).
///
/// # Example
/// ```
/// use bpush_server::WriteHistory;
/// use bpush_types::{Cycle, ItemId, ItemValue, TxnId};
///
/// let mut h = WriteHistory::new();
/// let x = ItemId::new(0);
/// let t = TxnId::new(Cycle::new(1), 0);
/// h.record(x, ItemValue::written_by(t));
/// assert_eq!(h.next_overwrite(x, ItemValue::initial()), Some(ItemValue::written_by(t)));
/// assert_eq!(h.next_overwrite(x, ItemValue::written_by(t)), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WriteHistory {
    writes: BTreeMap<ItemId, Vec<ItemValue>>,
}

impl WriteHistory {
    /// An empty history (every item implicitly starts at its initial
    /// load).
    pub fn new() -> Self {
        WriteHistory::default()
    }

    /// Records a committed write. Writes must arrive in serial order per
    /// item.
    ///
    /// # Panics
    /// In debug builds, panics if `value` is not newer than the last
    /// recorded write of `item`.
    pub fn record(&mut self, item: ItemId, value: ItemValue) {
        let log = self.writes.entry(item).or_default();
        debug_assert!(
            log.last()
                .map_or(true, |last| last.writer() < value.writer()),
            "writes must be recorded in serial order"
        );
        log.push(value);
    }

    /// All recorded writes of `item` in serial order (excluding the
    /// implicit initial load).
    pub fn writes_of(&self, item: ItemId) -> &[ItemValue] {
        self.writes.get(&item).map_or(&[], Vec::as_slice)
    }

    /// The value that superseded `value` on `item`, or `None` if `value`
    /// is still current (or was never recorded — an initial load with no
    /// writes).
    ///
    /// # Panics
    /// Panics if `value` carries a writer that never wrote `item`.
    pub fn next_overwrite(&self, item: ItemId, value: ItemValue) -> Option<ItemValue> {
        let log = self.writes_of(item);
        match value.writer() {
            None => log.first().copied(),
            Some(w) => {
                // the log is in serial order, so the writer is found by
                // bisection rather than a scan of the item's whole past
                let idx = log.partition_point(|v| v.writer() < Some(w));
                assert!(
                    log.get(idx).is_some_and(|v| v.writer() == Some(w)),
                    "read value must have been committed"
                );
                log.get(idx + 1).copied()
            }
        }
    }

    /// Number of items with at least one write.
    pub fn touched_items(&self) -> usize {
        self.writes.len()
    }

    /// Total recorded writes.
    pub fn total_writes(&self) -> usize {
        self.writes.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpush_types::{Cycle, TxnId};

    fn val(cycle: u64, seq: u32) -> ItemValue {
        ItemValue::written_by(TxnId::new(Cycle::new(cycle), seq))
    }

    #[test]
    fn empty_history() {
        let h = WriteHistory::new();
        let x = ItemId::new(0);
        assert_eq!(h.writes_of(x), &[]);
        assert_eq!(h.next_overwrite(x, ItemValue::initial()), None);
        assert_eq!(h.touched_items(), 0);
        assert_eq!(h.total_writes(), 0);
    }

    #[test]
    fn overwrite_chain() {
        let mut h = WriteHistory::new();
        let x = ItemId::new(3);
        h.record(x, val(1, 0));
        h.record(x, val(1, 2));
        h.record(x, val(4, 0));
        assert_eq!(h.next_overwrite(x, ItemValue::initial()), Some(val(1, 0)));
        assert_eq!(h.next_overwrite(x, val(1, 0)), Some(val(1, 2)));
        assert_eq!(h.next_overwrite(x, val(1, 2)), Some(val(4, 0)));
        assert_eq!(h.next_overwrite(x, val(4, 0)), None);
        assert_eq!(h.touched_items(), 1);
        assert_eq!(h.total_writes(), 3);
        assert_eq!(h.writes_of(x).len(), 3);
    }

    #[test]
    #[should_panic(expected = "must have been committed")]
    fn unknown_read_value_panics() {
        let h = WriteHistory::new();
        // claim we read a value written by a transaction that never wrote
        let mut h2 = h.clone();
        h2.record(ItemId::new(0), val(1, 0));
        let _ = h2.next_overwrite(ItemId::new(0), val(9, 9));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "serial order")]
    fn out_of_order_write_rejected() {
        let mut h = WriteHistory::new();
        let x = ItemId::new(0);
        h.record(x, val(2, 0));
        h.record(x, val(1, 0));
    }
}
