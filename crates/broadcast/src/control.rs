//! Control information broadcast ahead of the data (§3).
//!
//! Every bcast is preceded by an [`InvalidationReport`]; when the SGT
//! method is active the server additionally broadcasts an
//! [`AugmentedReport`] (item → first writer of the cycle) and the
//! serialization-graph difference ([`bpush_sgraph::GraphDiff`]).
//! [`ControlInfo`] bundles all three and knows its own on-air size.

use std::collections::BTreeMap;
use std::sync::Arc;

// bpush-lint: sans_io — protocol core: pure control-information computation, no clocks/threads/files/sockets

use bpush_sgraph::GraphDiff;
use bpush_types::{BpushError, BucketId, Cycle, Granularity, ItemId, TxnId};

/// Returns the first index `>= start` whose key is `>= key`, galloping:
/// exponential probe from `start`, then binary search inside the bracket.
/// O(log distance) per call, which makes a merge over two sorted
/// sequences linear in the shorter one.
// bpush-lint: hot_path — shared probe kernel of the per-cycle readset merges
fn gallop_to<T, K: Ord + Copy>(xs: &[T], start: usize, key: K, key_of: impl Fn(&T) -> K) -> usize {
    let n = xs.len();
    let mut step = 1usize;
    let mut lo = start;
    let mut hi = start;
    // bpush-lint: allow(panic-reach) — hi < n is checked by the loop condition
    while hi < n && key_of(&xs[hi]) < key {
        lo = hi + 1;
        hi += step;
        step <<= 1;
    }
    let hi = hi.min(n);
    lo + xs[lo..hi].partition_point(|x| key_of(x) < key) // bpush-lint: allow(panic-reach) — lo ≤ hi ≤ n by construction of the probe bracket
}

/// Whether the keys of `entries` strictly ascend — sorted and free of
/// duplicates, the form the report vectors are stored in.
fn strictly_ascending<K: Ord, V>(entries: &[(K, V)]) -> bool {
    entries
        .iter()
        .zip(entries.iter().skip(1))
        .all(|(a, b)| a.0 < b.0)
}

/// Binary-search lookup in a sorted `(key, value)` slice.
// bpush-lint: hot_path — per-item report probe
fn lookup<K: Ord + Copy, V: Copy>(entries: &[(K, V)], key: K) -> Option<V> {
    entries
        .binary_search_by_key(&key, |e| e.0)
        .ok()
        .map(|i| entries[i].1) // bpush-lint: allow(panic-reach) — i is a binary_search hit, in bounds by contract
}

/// Galloping merge of sorted `(key, cycle)` entries against a sorted,
/// nondecreasing key sequence; returns whether any matching entry's
/// cycle satisfies `pred`. Short-circuits on the first hit.
// bpush-lint: hot_path — the galloping merge behind any_stale/any_invalidated
fn any_entry_matching<K: Ord + Copy>(
    entries: &[(K, Cycle)],
    keys: impl Iterator<Item = K>,
    pred: impl Fn(Cycle) -> bool,
) -> bool {
    let mut cursor = 0usize;
    for key in keys {
        cursor = gallop_to(entries, cursor, key, |e| e.0);
        match entries.get(cursor) {
            None => return false,
            Some(&(k, c)) if k == key => {
                if pred(c) {
                    return true;
                }
                // duplicate keys in the input sequence (bucket collapse)
                // must re-test this same entry, so do not advance
            }
            Some(_) => {}
        }
    }
    false
}

/// The invalidation report broadcast at the beginning of a cycle (§3.1):
/// the items updated at the server during the covered window of previous
/// cycles (window 1 — just the previous cycle — is the paper's default;
/// larger windows are the §5.2.2 resynchronization extension).
///
/// The report supports both granularities of §7: at
/// [`Granularity::Bucket`] a client sees only which *buckets* changed, so
/// membership tests are conservative.
///
/// # Example
/// ```
/// use bpush_broadcast::InvalidationReport;
/// use bpush_types::{Cycle, Granularity, ItemId};
///
/// let report = InvalidationReport::new(
///     Cycle::new(5),
///     1,
///     [ItemId::new(3), ItemId::new(8)],
///     Granularity::Item,
///     4, // items per bucket
/// );
/// assert!(report.invalidates(ItemId::new(3)));
/// assert!(!report.invalidates(ItemId::new(4)));
///
/// let coarse = report.clone().at_granularity(Granularity::Bucket);
/// // item 1 shares bucket 0 with updated item 3 -> conservatively stale
/// assert!(coarse.invalidates(ItemId::new(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidationReport {
    cycle: Cycle,
    window: u32,
    granularity: Granularity,
    items_per_bucket: u32,
    /// Updated item -> the latest cycle (within the window) during which
    /// it was updated, sorted by item and deduplicated. The per-entry
    /// cycle is what lets windowed reports re-announce old updates
    /// without causing false aborts (§5.2.2). Sorted-`Vec` storage makes
    /// membership a binary search and readset intersection a galloping
    /// merge ([`InvalidationReport::any_stale`]) — clients probe these
    /// on every broadcast cycle.
    items: Vec<(ItemId, Cycle)>,
    /// The items collapsed to buckets, sorted and deduplicated.
    buckets: Vec<(BucketId, Cycle)>,
}

impl InvalidationReport {
    /// Builds the report broadcast at the beginning of `cycle`, covering
    /// updates from the previous `window` cycles.
    ///
    /// # Panics
    /// Panics if `window == 0` or `items_per_bucket == 0`; use
    /// [`InvalidationReport::try_new`] to handle those as errors.
    pub fn new(
        cycle: Cycle,
        window: u32,
        updated: impl IntoIterator<Item = ItemId>,
        granularity: Granularity,
        items_per_bucket: u32,
    ) -> Self {
        Self::try_new(cycle, window, updated, granularity, items_per_bucket)
            // lint: allow(panic) — documented panic; try_new is the fallible form
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`InvalidationReport::new`].
    ///
    /// # Errors
    /// Returns [`BpushError::InvalidConfig`] when `window == 0` or
    /// `items_per_bucket == 0`.
    pub fn try_new(
        cycle: Cycle,
        window: u32,
        updated: impl IntoIterator<Item = ItemId>,
        granularity: Granularity,
        items_per_bucket: u32,
    ) -> Result<Self, BpushError> {
        let prev = cycle.checked_sub(1).unwrap_or(Cycle::ZERO);
        InvalidationReport::try_with_dated(
            cycle,
            window,
            updated.into_iter().map(|x| (x, prev)),
            granularity,
            items_per_bucket,
        )
    }

    /// The general constructor: every updated item is paired with the
    /// latest cycle during which it was updated (which must lie within
    /// the window).
    ///
    /// # Panics
    /// Panics if `window == 0` or `items_per_bucket == 0`; use
    /// [`InvalidationReport::try_with_dated`] to handle those as errors.
    pub fn with_dated(
        cycle: Cycle,
        window: u32,
        updated: impl IntoIterator<Item = (ItemId, Cycle)>,
        granularity: Granularity,
        items_per_bucket: u32,
    ) -> Self {
        Self::try_with_dated(cycle, window, updated, granularity, items_per_bucket)
            // lint: allow(panic) — documented panic; try_with_dated is the fallible form
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`InvalidationReport::with_dated`], for untrusted
    /// input such as the wire-decode path.
    ///
    /// # Errors
    /// Returns [`BpushError::InvalidConfig`] when `window == 0` or
    /// `items_per_bucket == 0`.
    pub fn try_with_dated(
        cycle: Cycle,
        window: u32,
        updated: impl IntoIterator<Item = (ItemId, Cycle)>,
        granularity: Granularity,
        items_per_bucket: u32,
    ) -> Result<Self, BpushError> {
        if window == 0 {
            return Err(BpushError::invalid_config(
                "report window must cover at least one cycle",
            ));
        }
        if items_per_bucket == 0 {
            return Err(BpushError::invalid_config(
                "items_per_bucket must be positive",
            ));
        }
        // Construction runs once per cycle at the server and once per
        // client per cycle on the wire-decode path. An honest stream (and
        // the server's window-1 report) arrives strictly ascending by
        // item and is kept as is; anything else is deduplicated through
        // an ordered map, the latest date of an item winning.
        let mut items: Vec<(ItemId, Cycle)> = updated.into_iter().collect();
        if !strictly_ascending(&items) {
            let mut dedup: BTreeMap<ItemId, Cycle> = BTreeMap::new();
            for (x, c) in items {
                let slot = dedup.entry(x).or_insert(c);
                *slot = (*slot).max(c);
            }
            items = dedup.into_iter().collect();
        }
        // At most one bucket per item, in one allocation. Rounding up to a
        // power of two keeps the block sizes that growth by doubling used:
        // an exact size raised `update-storm`'s peak RSS by about 3 %.
        let mut buckets: Vec<(BucketId, Cycle)> =
            Vec::with_capacity(items.len().next_power_of_two());
        for &(x, c) in &items {
            let b = BucketId::new(x.index() / items_per_bucket); // bpush-lint: allow(panic-reach) — items_per_bucket is validated nonzero above
            match buckets.last_mut() {
                // items are sorted, so bucket ids arrive nondecreasing
                Some(last) if last.0 == b => last.1 = last.1.max(c),
                _ => buckets.push((b, c)),
            }
        }
        Ok(InvalidationReport {
            cycle,
            window,
            granularity,
            items_per_bucket,
            items,
            buckets,
        })
    }

    /// An empty report for `cycle` (no updates).
    pub fn empty(cycle: Cycle) -> Self {
        InvalidationReport::new(cycle, 1, [], Granularity::Item, 1)
    }

    /// The cycle at whose beginning this report is broadcast.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// How many previous cycles of updates this report covers.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// The report's granularity.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// Items per bucket used for bucket-granularity coarsening.
    pub fn items_per_bucket(&self) -> u32 {
        self.items_per_bucket
    }

    /// Returns the same report re-expressed at a different granularity.
    #[must_use]
    pub fn at_granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Whether this report mentions an update of `item` at all.
    /// Conservative at bucket granularity.
    pub fn invalidates(&self, item: ItemId) -> bool {
        self.update_cycle(item).is_some()
    }

    /// The latest update cycle this report records for `item`
    /// (granularity-aware; at bucket granularity the bucket's latest).
    pub fn update_cycle(&self, item: ItemId) -> Option<Cycle> {
        match self.granularity {
            Granularity::Item => lookup(&self.items, item),
            Granularity::Bucket => lookup(
                &self.buckets,
                BucketId::new(item.index() / self.items_per_bucket), // bpush-lint: allow(panic-reach) — items_per_bucket is validated nonzero at construction
            ),
        }
    }

    /// Whether any member of `readset` (which must be sorted ascending,
    /// as `bpush-core` readsets are) is reported updated at all.
    /// Granularity-aware and conservative at bucket granularity, exactly
    /// like per-item [`InvalidationReport::invalidates`], but a single
    /// galloping merge over the two sorted sequences instead of one
    /// probe per readset member.
    // bpush-lint: hot_path — per-cycle client probe over every active readset
    pub fn any_invalidated(&self, readset: &[ItemId]) -> bool {
        self.any_stale(readset, Cycle::ZERO)
    }

    /// Whether any member of the sorted `readset`, known current at
    /// database state `state`, is invalidated by this report — the
    /// galloping-merge form of [`InvalidationReport::stale_at`]. This is
    /// the per-cycle client hot path: every active query intersects its
    /// readset with every report.
    // bpush-lint: hot_path — per-cycle client staleness probe (PR-3 allocation-freedom contract)
    pub fn any_stale(&self, readset: &[ItemId], state: Cycle) -> bool {
        debug_assert!(readset.windows(2).all(|w| w[0] < w[1]), "readset sorted"); // bpush-lint: allow(panic-reach) — debug-only assertion; windows(2) yields exactly-2 slices
        match self.granularity {
            Granularity::Item => {
                any_entry_matching(&self.items, readset.iter().copied(), |u| u >= state)
            }
            // readset sorted by item ⇒ its bucket projection is
            // nondecreasing, so the same single-cursor merge applies
            Granularity::Bucket => any_entry_matching(
                &self.buckets,
                readset
                    .iter()
                    .map(|x| BucketId::new(x.index() / self.items_per_bucket)), // bpush-lint: allow(panic-reach) — items_per_bucket is validated nonzero at construction
                |u| u >= state,
            ),
        }
    }

    /// Whether a value of `item` known current at database state `state`
    /// is invalidated by this report: true iff the report records an
    /// update during cycle `state` or later (an update before `state`
    /// was already reflected in the value).
    pub fn stale_at(&self, item: ItemId, state: Cycle) -> bool {
        self.update_cycle(item).is_some_and(|u| u >= state)
    }

    /// Whether the bucket as a whole was invalidated (used for cache-page
    /// invalidation, which is always at bucket/page granularity, §4).
    pub fn invalidates_bucket(&self, bucket: BucketId) -> bool {
        self.bucket_update_cycle(bucket).is_some()
    }

    /// The latest update cycle recorded for a bucket.
    pub fn bucket_update_cycle(&self, bucket: BucketId) -> Option<Cycle> {
        lookup(&self.buckets, bucket)
    }

    /// The exact updated items (ground truth; what an item-granularity
    /// report transmits).
    pub fn items(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.items.iter().map(|&(x, _)| x)
    }

    /// Updated items with their latest update cycle, sorted by item.
    pub fn dated_items(&self) -> &[(ItemId, Cycle)] {
        &self.items
    }

    /// The updated buckets.
    pub fn buckets(&self) -> impl Iterator<Item = BucketId> + '_ {
        self.buckets.iter().map(|&(b, _)| b)
    }

    /// Number of transmitted entries at the configured granularity.
    pub fn len(&self) -> usize {
        match self.granularity {
            Granularity::Item => self.items.len(),
            Granularity::Bucket => self.buckets.len(),
        }
    }

    /// Whether the report lists nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// On-air size in abstract units: one key per entry (§3.1's
    /// `⌈u·k / b⌉` numerator).
    pub fn size_units(&self, key_size: u32) -> u64 {
        self.len() as u64 * u64::from(key_size)
    }
}

/// The augmented invalidation report of the SGT method (§3.3): every item
/// written during the covered cycle together with the *first* transaction
/// that wrote it in that cycle (Claim 2 shows one precedence edge to the
/// first writer suffices).
///
/// # Example
/// ```
/// use bpush_broadcast::AugmentedReport;
/// use bpush_types::{Cycle, ItemId, TxnId};
/// let c = Cycle::new(2);
/// let report = AugmentedReport::new(c, [(ItemId::new(1), TxnId::new(c, 0))]);
/// assert_eq!(report.first_writer(ItemId::new(1)), Some(TxnId::new(c, 0)));
/// assert_eq!(report.first_writer(ItemId::new(2)), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AugmentedReport {
    cycle: Cycle,
    /// `(item, first writer)`, sorted by item and deduplicated (the last
    /// entry wins on duplicates, matching map-collect semantics).
    first_writers: Vec<(ItemId, TxnId)>,
}

impl AugmentedReport {
    /// Builds the report for updates committed during `cycle` (broadcast
    /// at the beginning of the following cycle).
    pub fn new(cycle: Cycle, entries: impl IntoIterator<Item = (ItemId, TxnId)>) -> Self {
        let mut first_writers: Vec<(ItemId, TxnId)> = entries.into_iter().collect();
        if !strictly_ascending(&first_writers) {
            let dedup: BTreeMap<ItemId, TxnId> = first_writers.into_iter().collect();
            first_writers = dedup.into_iter().collect();
        }
        debug_assert!(
            first_writers.iter().all(|(_, t)| t.cycle() == cycle),
            "first writers must have committed during the covered cycle"
        );
        AugmentedReport {
            cycle,
            first_writers,
        }
    }

    /// The cycle whose updates this report describes.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// The first transaction that wrote `item` during the covered cycle.
    pub fn first_writer(&self, item: ItemId) -> Option<TxnId> {
        lookup(&self.first_writers, item)
    }

    /// All `(item, first writer)` entries, sorted by item.
    pub fn entries(&self) -> &[(ItemId, TxnId)] {
        &self.first_writers
    }

    /// The entries whose item appears in the sorted `readset`, in item
    /// order — a galloping merge of the two sorted sequences. This is
    /// the SGT client hot path: every active query intersects its
    /// readset with every cycle's augmented report to add precedence
    /// edges (§3.3), and the merge replaces a per-entry set probe.
    // bpush-lint: hot_path — per-cycle SGT readset/report merge (PR-3 allocation-freedom contract)
    pub fn matches_in<'a>(
        &'a self,
        readset: &'a [ItemId],
    ) -> impl Iterator<Item = (ItemId, TxnId)> + 'a {
        debug_assert!(readset.windows(2).all(|w| w[0] < w[1]), "readset sorted"); // bpush-lint: allow(panic-reach) — debug-only assertion; windows(2) yields exactly-2 slices
        let entries = self.first_writers.as_slice();
        let mut ei = 0usize;
        let mut ri = 0usize;
        std::iter::from_fn(move || loop {
            let &target = readset.get(ri)?;
            ei = gallop_to(entries, ei, target, |e| e.0);
            let &(item, writer) = entries.get(ei)?;
            if item == target {
                ri += 1;
                ei += 1;
                return Some((item, writer));
            }
            // entries jumped past `target`: gallop the readset forward
            ri = gallop_to(readset, ri, item, |&x| x);
        })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.first_writers.len()
    }

    /// Whether the report is empty.
    pub fn is_empty(&self) -> bool {
        self.first_writers.is_empty()
    }

    /// On-air size in units: a key plus a transaction id per entry
    /// (§3.3's `⌈u(k + log N) / b⌉` numerator).
    pub fn size_units(&self, key_size: u32, tid_size: u32) -> u64 {
        self.len() as u64 * u64::from(key_size + tid_size)
    }
}

/// Everything broadcast ahead of the data segment of one bcast.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlInfo {
    cycle: Cycle,
    invalidation: InvalidationReport,
    augmented: Option<AugmentedReport>,
    /// Shared: every struct-fed SGT client keeps this one diff as its
    /// chunk of the cycle.
    graph_diff: Option<Arc<GraphDiff>>,
}

impl ControlInfo {
    /// Bundles the control information for `cycle`.
    ///
    /// # Panics
    /// Panics if any constituent report is stamped with a different cycle
    /// (the invalidation report is stamped with the cycle it *precedes*;
    /// the augmented report and diff with the cycle they *describe*, i.e.
    /// the previous one). Use [`ControlInfo::try_new`] to handle the
    /// mismatch as an error instead.
    pub fn new(
        cycle: Cycle,
        invalidation: InvalidationReport,
        augmented: Option<AugmentedReport>,
        graph_diff: Option<GraphDiff>,
    ) -> Self {
        // lint: allow(panic) — documented panic; try_new is the fallible form
        Self::try_new(cycle, invalidation, augmented, graph_diff).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`ControlInfo::new`], for untrusted input such
    /// as the wire-decode path.
    ///
    /// # Errors
    /// Returns [`BpushError::InvalidConfig`] if any constituent report
    /// is stamped with a different cycle.
    pub fn try_new(
        cycle: Cycle,
        invalidation: InvalidationReport,
        augmented: Option<AugmentedReport>,
        graph_diff: Option<GraphDiff>,
    ) -> Result<Self, BpushError> {
        if invalidation.cycle() != cycle {
            return Err(BpushError::invalid_config(
                "invalidation report cycle mismatch",
            ));
        }
        if let Some(aug) = &augmented {
            if aug.cycle().next() != cycle {
                return Err(BpushError::invalid_config(
                    "augmented report must describe the previous cycle",
                ));
            }
        }
        let head = ControlInfo {
            cycle,
            invalidation,
            augmented,
            graph_diff: None,
        };
        match graph_diff {
            Some(diff) => head.try_with_graph_diff(diff),
            None => Ok(head),
        }
    }

    /// Attaches the SGT graph difference to control info that has none:
    /// the wire decoder reads the diff, the last field of a control
    /// payload, only after the reports before it.
    ///
    /// # Errors
    /// Returns [`BpushError::InvalidConfig`] if `diff` does not describe
    /// the previous cycle.
    pub fn try_with_graph_diff(mut self, diff: GraphDiff) -> Result<Self, BpushError> {
        if diff.cycle().next() != self.cycle {
            return Err(BpushError::invalid_config(
                "graph diff must describe the previous cycle",
            ));
        }
        self.graph_diff = Some(Arc::new(diff));
        Ok(self)
    }

    /// Whether this is what a receiver hears of `sent`: the same control
    /// information, except that a graph diff the receiver left unread
    /// (see [`crate::feed::decode_control_with`]) is absent.
    pub fn is_heard_of(&self, sent: &ControlInfo) -> bool {
        match self.graph_diff {
            Some(_) => self == sent,
            None => {
                self.cycle == sent.cycle
                    && self.invalidation == sent.invalidation
                    && self.augmented == sent.augmented
            }
        }
    }

    /// Control info carrying an empty invalidation report and nothing else.
    pub fn empty(cycle: Cycle) -> Self {
        ControlInfo::new(cycle, InvalidationReport::empty(cycle), None, None)
    }

    /// The cycle this control segment precedes.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// The invalidation report.
    pub fn invalidation(&self) -> &InvalidationReport {
        &self.invalidation
    }

    /// The SGT augmented report, when broadcast.
    pub fn augmented(&self) -> Option<&AugmentedReport> {
        self.augmented.as_ref()
    }

    /// The SGT serialization-graph difference, when broadcast.
    pub fn graph_diff(&self) -> Option<&GraphDiff> {
        self.graph_diff.as_deref()
    }

    /// The SGT serialization-graph difference as the shared handle an
    /// SGT client keeps in its window, when broadcast.
    pub fn shared_graph_diff(&self) -> Option<&Arc<GraphDiff>> {
        self.graph_diff.as_ref()
    }

    /// On-air size of the whole control segment, in buckets of payload
    /// size `bucket_size` units.
    ///
    /// # Panics
    /// Panics if `bucket_size` is zero.
    pub fn slots(&self, bucket_size: u32, key_size: u32, tid_size: u32) -> u64 {
        assert!(bucket_size > 0, "bucket size must be positive");
        let mut units = self.invalidation.size_units(key_size);
        if let Some(aug) = &self.augmented {
            units += aug.size_units(key_size, tid_size);
        }
        if let Some(diff) = &self.graph_diff {
            units += diff.size_units(tid_size);
        }
        units.div_ceil(u64::from(bucket_size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycle: u64, items: &[u32]) -> InvalidationReport {
        InvalidationReport::new(
            Cycle::new(cycle),
            1,
            items.iter().map(|&i| ItemId::new(i)),
            Granularity::Item,
            1,
        )
    }

    #[test]
    fn invalidation_membership_item_granularity() {
        let r = report(3, &[1, 5, 9]);
        assert!(r.invalidates(ItemId::new(5)));
        assert!(!r.invalidates(ItemId::new(4)));
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.size_units(1), 3);
        assert_eq!(r.size_units(2), 6);
        assert_eq!(r.cycle(), Cycle::new(3));
        assert_eq!(r.window(), 1);
    }

    #[test]
    fn invalidation_bucket_granularity_is_conservative() {
        let r = InvalidationReport::new(Cycle::ZERO, 1, [ItemId::new(5)], Granularity::Bucket, 4);
        // bucket 1 holds items 4..8
        assert!(r.invalidates(ItemId::new(4)));
        assert!(r.invalidates(ItemId::new(7)));
        assert!(!r.invalidates(ItemId::new(3)));
        assert!(r.invalidates_bucket(BucketId::new(1)));
        assert!(!r.invalidates_bucket(BucketId::new(0)));
        assert_eq!(r.len(), 1, "one bucket entry transmitted");
    }

    #[test]
    fn bucket_report_can_be_smaller() {
        let fine = InvalidationReport::new(
            Cycle::ZERO,
            1,
            (0..8).map(ItemId::new),
            Granularity::Item,
            4,
        );
        let coarse = fine.clone().at_granularity(Granularity::Bucket);
        assert_eq!(fine.len(), 8);
        assert_eq!(coarse.len(), 2);
        assert!(coarse.size_units(1) < fine.size_units(1));
    }

    #[test]
    fn empty_report() {
        let r = InvalidationReport::empty(Cycle::new(9));
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert!(!r.invalidates(ItemId::new(0)));
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        let _ = InvalidationReport::new(Cycle::ZERO, 0, [], Granularity::Item, 1);
    }

    #[test]
    fn any_stale_agrees_with_per_item_probes() {
        let r = InvalidationReport::with_dated(
            Cycle::new(6),
            4,
            [
                (ItemId::new(2), Cycle::new(3)),
                (ItemId::new(5), Cycle::new(5)),
                (ItemId::new(9), Cycle::new(4)),
            ],
            Granularity::Item,
            4,
        );
        let sets: [&[ItemId]; 5] = [
            &[],
            &[ItemId::new(0), ItemId::new(1)],
            &[ItemId::new(2)],
            &[ItemId::new(3), ItemId::new(5), ItemId::new(7)],
            &[ItemId::new(9), ItemId::new(11)],
        ];
        for set in sets {
            for state in 0..7 {
                let state = Cycle::new(state);
                let naive = set.iter().any(|&x| r.stale_at(x, state));
                assert_eq!(r.any_stale(set, state), naive, "{set:?} at {state}");
            }
            let naive = set.iter().any(|&x| r.invalidates(x));
            assert_eq!(r.any_invalidated(set), naive, "{set:?}");
        }
    }

    #[test]
    fn any_stale_bucket_granularity_is_conservative() {
        let r = InvalidationReport::new(Cycle::new(1), 1, [ItemId::new(5)], Granularity::Bucket, 4);
        // items 4..8 share updated bucket 1; several readset members
        // mapping to the same bucket must each be tested
        assert!(r.any_stale(&[ItemId::new(4), ItemId::new(6)], Cycle::ZERO));
        assert!(r.any_invalidated(&[ItemId::new(7)]));
        assert!(!r.any_invalidated(&[ItemId::new(1), ItemId::new(3), ItemId::new(8)]));
    }

    #[test]
    fn augmented_matches_in_gallops_both_sides() {
        let c = Cycle::new(3);
        let entries: Vec<(ItemId, TxnId)> = (0..40)
            .filter(|i| i % 3 == 0)
            .map(|i| (ItemId::new(i), TxnId::new(c, i)))
            .collect();
        let r = AugmentedReport::new(c, entries);
        let readset: Vec<ItemId> = (0..40).filter(|i| i % 5 == 0).map(ItemId::new).collect();
        let merged: Vec<(ItemId, TxnId)> = r.matches_in(&readset).collect();
        let naive: Vec<(ItemId, TxnId)> = r
            .entries()
            .iter()
            .copied()
            .filter(|(x, _)| readset.contains(x))
            .collect();
        assert_eq!(merged, naive);
        assert_eq!(merged.len(), 3, "multiples of 15 in 0..40");
        assert!(r.matches_in(&[]).next().is_none());
        assert!(r.matches_in(&[ItemId::new(41)]).next().is_none());
    }

    /// The readset probes over ids at both ends of the id space: every
    /// gallop crosses a gap of up to `u32::MAX` ids, in the report or in
    /// the readset.
    #[test]
    fn set_probes_survive_a_wide_id_span() {
        let r = report(3, &[0, 70_000, u32::MAX]);
        assert!(r.any_invalidated(&[ItemId::new(70_000)]));
        assert!(r.any_invalidated(&[ItemId::new(1), ItemId::new(u32::MAX)]));
        let misses = [1, 69_999, 70_001, u32::MAX - 1].map(ItemId::new);
        assert!(!r.any_invalidated(&misses));
        assert!(r.any_stale(&[ItemId::new(u32::MAX)], Cycle::new(2)));
        assert!(!r.any_stale(&[ItemId::new(u32::MAX)], Cycle::new(3)));

        let c = Cycle::new(3);
        let aug = AugmentedReport::new(
            c,
            [0, 70_000, u32::MAX].map(|i| (ItemId::new(i), TxnId::new(c, 0))),
        );
        let readset = [5, 70_000, u32::MAX].map(ItemId::new);
        let hits: Vec<ItemId> = aug.matches_in(&readset).map(|(x, _)| x).collect();
        assert_eq!(hits, [70_000, u32::MAX].map(ItemId::new));
        assert!(aug.matches_in(&misses).next().is_none());
    }

    #[test]
    fn augmented_report_lookup() {
        let c = Cycle::new(4);
        let r = AugmentedReport::new(
            c,
            [
                (ItemId::new(1), TxnId::new(c, 2)),
                (ItemId::new(3), TxnId::new(c, 0)),
            ],
        );
        assert_eq!(r.first_writer(ItemId::new(3)), Some(TxnId::new(c, 0)));
        assert_eq!(r.first_writer(ItemId::new(2)), None);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.size_units(1, 1), 4);
        assert_eq!(r.entries().len(), 2);
    }

    #[test]
    fn control_info_slot_accounting() {
        let c = Cycle::new(5);
        let prev = c.prev();
        let inv = report(5, &[1, 2, 3, 4, 5]);
        let aug = AugmentedReport::new(prev, [(ItemId::new(1), TxnId::new(prev, 0))]);
        let diff = GraphDiff::new(
            prev,
            vec![TxnId::new(prev, 0)],
            vec![(TxnId::new(Cycle::new(3), 0), TxnId::new(prev, 0))],
        );
        let ctrl = ControlInfo::new(c, inv.clone(), Some(aug), Some(diff));
        // units: inv 5*1 + aug 1*(1+1) + diff (1*1 + 1*2*1) = 5 + 2 + 3 = 10
        assert_eq!(ctrl.slots(5, 1, 1), 2);
        assert_eq!(ctrl.slots(10, 1, 1), 1);
        assert_eq!(ctrl.cycle(), c);
        assert!(ctrl.augmented().is_some());
        assert!(ctrl.graph_diff().is_some());

        let bare = ControlInfo::new(c, inv, None, None);
        assert_eq!(bare.slots(5, 1, 1), 1);
    }

    #[test]
    fn control_info_empty_has_zero_slots() {
        let ctrl = ControlInfo::empty(Cycle::new(1));
        assert_eq!(ctrl.slots(5, 1, 1), 0);
        assert!(ctrl.invalidation().is_empty());
    }

    #[test]
    #[should_panic(expected = "previous cycle")]
    fn control_info_rejects_misaligned_diff() {
        let c = Cycle::new(5);
        let diff = GraphDiff::empty(c); // must be c - 1
        let _ = ControlInfo::new(c, InvalidationReport::empty(c), None, Some(diff));
    }
}
