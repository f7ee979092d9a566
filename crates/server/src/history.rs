//! The server's write log: the one store of committed values.
//!
//! The server airs each item's current value and the old versions still
//! on air (§3.2) from [`WriteHistory`]. The simulation's correctness
//! tests verify the paper's theorems against the same log: every
//! committed read-only transaction must have read a subset of *some*
//! consistent database state — equivalently, there must exist a point in
//! the server's (serial) history at which all values it read were
//! simultaneously current. The log keeps every cycle-final write forever
//! and answers the question that check needs: *which write superseded
//! this value, and when?*

use bpush_types::{Cycle, ItemId, ItemValue};

/// Complete write log: for every item, all committed values in serial
/// order, after an implicit initial load.
///
/// # On-air retention rule
///
/// A superseded value must stay on air at cycle `n` while a transaction
/// with span ≤ V could still need it. A value is needed by a transaction
/// whose first read happened at some cycle `c_0 ≥ n − V + 1` and that is
/// the largest version `≤ c_0`; that is exactly the case when the value
/// was superseded during one of the last `V − 1` cycles, i.e. its
/// successor's version exceeds `n − V + 1`. Older values stay in the log
/// for the audit but leave the air (the paper's "at each cycle `k`, the
/// server discards the `k − S` version").
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
/// assert_eq!(h.current(x), ItemValue::written_by(t));
/// assert_eq!(h.next_overwrite(x, ItemValue::initial()), Some(ItemValue::written_by(t)));
/// assert_eq!(h.next_overwrite(x, ItemValue::written_by(t)), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WriteHistory {
    /// `writes[item]`, in serial order; an item past the end has none.
    writes: Vec<Vec<ItemValue>>,
}

impl WriteHistory {
    /// An empty history (every item implicitly starts at its initial
    /// load).
    pub fn new() -> Self {
        WriteHistory::default()
    }

    /// Records a committed write. Writes must arrive in serial order per
    /// item. A write of the same cycle as the item's last one replaces
    /// it: only a cycle-final value is ever aired, read or kept.
    ///
    /// # Panics
    /// In debug builds, panics if `value`'s writer committed before the
    /// last recorded writer of `item`.
    pub fn record(&mut self, item: ItemId, value: ItemValue) {
        let i = item.as_usize();
        if i >= self.writes.len() {
            self.writes.resize_with(i + 1, Vec::new);
        }
        let log = &mut self.writes[i];
        debug_assert!(
            log.last()
                .map_or(true, |last| last.writer() <= value.writer()),
            "writes must be recorded in serial order"
        );
        match log.last_mut() {
            Some(last) if last.version() == value.version() => *last = value,
            _ => log.push(value),
        }
    }

    /// All recorded writes of `item` in serial order (excluding the
    /// implicit initial load).
    pub fn writes_of(&self, item: ItemId) -> &[ItemValue] {
        self.writes.get(item.as_usize()).map_or(&[], Vec::as_slice)
    }

    /// The current value of `item`: its last write, else its initial
    /// load.
    pub fn current(&self, item: ItemId) -> ItemValue {
        self.writes_of(item)
            .last()
            .copied()
            .unwrap_or(ItemValue::initial())
    }

    /// The superseded values of `item` that must be broadcast at cycle
    /// `now` by a server retaining `retain` old cycles (see the type-level
    /// retention rule), most recent first; `retain` ≤ 1 airs none. Walks
    /// the item's log lazily, so a caller collects the chain where it
    /// wants it.
    pub fn on_air_old_versions(
        &self,
        item: ItemId,
        now: Cycle,
        retain: u32,
    ) -> impl Iterator<Item = ItemValue> + '_ {
        let writes = self.writes_of(item);
        // `[initial] ++ writes` newest first, each value beside the one
        // that superseded it
        let superseded = writes
            .iter()
            .rev()
            .skip(1)
            .copied()
            .chain([ItemValue::initial()]);
        writes
            .iter()
            .rev()
            .zip(superseded)
            // still needed iff superseded within the last `retain - 1`
            // cycles: successor.version > now - retain + 1; older values
            // were superseded even earlier
            .take_while(move |(successor, _)| {
                retain > 1
                    && successor
                        .version()
                        .number()
                        .saturating_add(u64::from(retain))
                        > now.number().saturating_add(1)
            })
            .map(|(_, value)| value)
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

    /// Total recorded writes.
    pub fn total_writes(&self) -> usize {
        self.writes.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpush_types::TxnId;

    fn val(cycle: u64, seq: u32) -> ItemValue {
        ItemValue::written_by(TxnId::new(Cycle::new(cycle), seq))
    }

    #[test]
    fn empty_history() {
        let h = WriteHistory::new();
        let x = ItemId::new(0);
        assert_eq!(h.writes_of(x), &[]);
        assert_eq!(h.next_overwrite(x, ItemValue::initial()), None);
        assert_eq!(h.total_writes(), 0);
    }

    /// Writes chain in serial order, and a later write of the same cycle
    /// replaces the earlier: `(1,0)` then `(1,2)` keeps only `(1,2)`.
    #[test]
    fn overwrite_chain() {
        let mut h = WriteHistory::new();
        let x = ItemId::new(3);
        h.record(x, val(1, 0));
        h.record(x, val(1, 2));
        h.record(x, val(4, 0));
        assert_eq!(h.writes_of(x), [val(1, 2), val(4, 0)]);
        assert_eq!(h.next_overwrite(x, ItemValue::initial()), Some(val(1, 2)));
        assert_eq!(h.next_overwrite(x, val(1, 2)), Some(val(4, 0)));
        assert_eq!(h.next_overwrite(x, val(4, 0)), None);
        assert_eq!(h.total_writes(), 2);
    }

    /// An item's current value is its last write; an untouched item, one
    /// below the log's grown length or past it, is at its initial load.
    #[test]
    fn current_is_the_last_write_else_the_initial_load() {
        let mut h = WriteHistory::new();
        let x = ItemId::new(2);
        assert_eq!(h.current(x), ItemValue::initial());
        h.record(x, val(0, 0));
        h.record(x, val(2, 1));
        assert_eq!(h.current(x), val(2, 1));
        assert_eq!(h.current(ItemId::new(0)), ItemValue::initial());
        assert_eq!(h.current(ItemId::new(3)), ItemValue::initial());
        assert_eq!(h.writes_of(ItemId::new(3)), &[]);
    }

    #[test]
    fn on_air_old_versions_window() {
        let mut h = WriteHistory::new();
        let x = ItemId::new(0);
        h.record(x, val(0, 0)); // version 1, supersedes initial at cycle 1
        h.record(x, val(3, 0)); // version 4, supersedes v1 at cycle 4
        h.record(x, val(5, 0)); // version 6 (current)

        let chain = |x, now, retain| {
            h.on_air_old_versions(x, Cycle::new(now), retain)
                .collect::<Vec<_>>()
        };
        // At cycle 6 with retain = 3: a value is on air iff its successor's
        // version > 6 - 3 + 1 = 4. v4's successor is v6 (> 4): on air.
        // v1's successor is v4 (not > 4): off air, and so is v0.
        assert_eq!(chain(x, 6, 3), [val(3, 0)]);
        // at the window's edge: v1's successor v4 > 7 - 4 + 1 = 4 is not
        assert_eq!(chain(x, 7, 4), [val(3, 0)]);
        assert_eq!(chain(x, 6, 4), [val(3, 0), val(0, 0)]);

        // With a wide window everything is on air, most recent first,
        // down to the initial load.
        assert_eq!(
            chain(x, 6, 100),
            [val(3, 0), val(0, 0), ItemValue::initial()]
        );

        // retain ≤ 1 keeps nothing old on air, whatever the cycle.
        for now in [4, 6] {
            for retain in [0, 1] {
                assert!(chain(x, now, retain).is_empty());
            }
        }

        // an untouched item has no old version
        assert!(chain(ItemId::new(7), 6, 100).is_empty());
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
