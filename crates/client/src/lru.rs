//! A small LRU map used by the client cache (§5.1: "the cache
//! replacement policy is LRU").

use std::borrow::Borrow;

/// A bounded map with least-recently-used eviction.
///
/// Reads and writes *touch* the entry; inserting into a full map evicts
/// the least recently touched one. One key-sorted vector: lookups are
/// binary searches, walks are slice walks in key order, and an insert,
/// an eviction or a removal is linear in the (small) capacity.
///
/// # Example
/// ```
/// use bpush_client::lru::LruMap;
/// let mut m = LruMap::new(2);
/// m.insert("a", 1);
/// m.insert("b", 2);
/// m.get(&"a"); // touch a
/// let evicted = m.insert("c", 3);
/// assert_eq!(evicted, Some(("b", 2)), "b was least recently used");
/// assert!(m.contains(&"a") && m.contains(&"c"));
/// ```
#[derive(Debug, Clone)]
pub struct LruMap<K, V> {
    capacity: usize,
    tick: u64,
    /// `(key, last touch, value)`, sorted by key; touches are unique.
    entries: Vec<(K, u64, V)>,
}

impl<K: Ord, V> LruMap<K, V> {
    /// Creates a map holding at most `capacity` entries. A capacity of
    /// zero makes every insert evict the inserted entry immediately
    /// (i.e. the map stays empty), which models a disabled cache.
    pub fn new(capacity: usize) -> Self {
        LruMap {
            capacity,
            tick: 0,
            entries: Vec::new(),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Where `key` is, or where it would go.
    fn find<Q>(&self, key: &Q) -> Result<usize, usize>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.entries
            .binary_search_by(|(k, _, _)| k.borrow().cmp(key))
    }

    /// Looks up and touches an entry.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.get_mut(key).map(|v| &*v)
    }

    /// Looks up and touches an entry, mutably.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let tick = self.next_tick();
        let at = self.find(key).ok()?;
        let (_, touched, value) = &mut self.entries[at];
        *touched = tick;
        Some(value)
    }

    /// Looks up without touching (no recency update).
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.find(key).ok().map(|at| &self.entries[at].2)
    }

    /// Looks up mutably without touching.
    pub fn peek_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.find(key).ok().map(|at| &mut self.entries[at].2)
    }

    /// Whether `key` is present (does not touch).
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.find(key).is_ok()
    }

    /// Inserts (or replaces) an entry, touching it, and returns the
    /// evicted least-recently-used entry if the map overflowed (or the
    /// inserted pair itself at capacity zero).
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.capacity == 0 {
            return Some((key, value));
        }
        let tick = self.next_tick();
        let at = match self.find(&key) {
            Ok(at) => {
                (self.entries[at].1, self.entries[at].2) = (tick, value);
                return None;
            }
            Err(at) => at,
        };
        if self.entries.len() < self.capacity {
            self.entries.insert(at, (key, tick, value));
            return None;
        }
        // Full: the new entry takes the least recent touch's slot, and the
        // slots between the two rotate to keep the keys sorted.
        let (victim, _) = self.entries.iter().enumerate().min_by_key(|(_, e)| e.1)?;
        let (k, _, v) = std::mem::replace(&mut self.entries[victim], (key, tick, value));
        if victim < at {
            self.entries[victim..at].rotate_left(1);
        } else {
            self.entries[at..=victim].rotate_right(1);
        }
        Some((k, v))
    }

    /// Removes an entry.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.find(key).ok().map(|at| self.entries.remove(at).2)
    }

    /// Drops all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Iterates over `(key, value)` in key order, without touching.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, _, v)| (k, v))
    }

    /// Like [`iter`](Self::iter), from the first key at or after `from`.
    pub fn iter_from<Q>(&self, from: &Q) -> impl Iterator<Item = (&K, &V)>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let at = self.find(from).unwrap_or_else(|at| at);
        self.entries[at..].iter().map(|(k, _, v)| (k, v))
    }

    /// Like [`iter`](Self::iter), with the values mutable.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.entries.iter_mut().map(|(k, _, v)| (&*k, v))
    }

    /// Keeps the entries `keep` approves, visiting them in key order with
    /// the values mutable, without touching.
    pub fn retain_mut(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, _, v)| keep(k, v));
    }

    /// Iterates mutably over values in key order, without touching.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, _, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut m = LruMap::new(3);
        assert_eq!(m.capacity(), 3);
        m.insert(1, "a");
        m.insert(2, "b");
        m.insert(3, "c");
        m.get(&1);
        m.get(&2);
        let evicted = m.insert(4, "d");
        assert_eq!(evicted, Some((3, "c")));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let mut m = LruMap::new(2);
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.insert(1, "a2"), None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.peek(&1), Some(&"a2"));
        // 2 is now the LRU entry
        assert_eq!(m.insert(3, "c"), Some((2, "b")));
    }

    #[test]
    fn peek_does_not_touch() {
        let mut m = LruMap::new(2);
        m.insert(1, "a");
        m.insert(2, "b");
        m.peek(&1); // no touch: 1 stays LRU
        assert_eq!(m.insert(3, "c"), Some((1, "a")));
    }

    #[test]
    fn get_mut_touches_and_mutates() {
        let mut m = LruMap::new(2);
        m.insert(1, 10);
        m.insert(2, 20);
        *m.get_mut(&1).unwrap() += 5;
        assert_eq!(m.peek(&1), Some(&15));
        assert_eq!(m.insert(3, 30), Some((2, 20)));
    }

    #[test]
    fn capacity_zero_holds_nothing() {
        let mut m = LruMap::new(0);
        assert_eq!(m.insert(1, "a"), Some((1, "a")));
        assert!(m.is_empty());
        assert!(!m.contains(&1));
    }

    #[test]
    fn remove_and_clear() {
        let mut m = LruMap::new(4);
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.remove(&1), Some("a"));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.len(), 1);
        m.clear();
        assert!(m.is_empty());
        // inserts work normally after a clear
        m.insert(3, "c");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iter_covers_all_entries() {
        let mut m = LruMap::new(4);
        for i in 0..4 {
            m.insert(i, i * 10);
        }
        let mut items: Vec<_> = m.iter().map(|(&k, &v)| (k, v)).collect();
        items.sort();
        assert_eq!(items, vec![(0, 0), (1, 10), (2, 20), (3, 30)]);
        for v in m.values_mut() {
            *v += 1;
        }
        assert_eq!(m.peek(&2), Some(&21));
    }

    #[test]
    fn iter_is_in_key_order_from_any_key() {
        let mut m = LruMap::new(8);
        for k in [5, 1, 7, 3] {
            m.insert(k, k * 10);
        }
        let keys: Vec<i32> = m.iter().map(|(&k, _)| k).collect();
        assert_eq!(keys, [1, 3, 5, 7]);
        let from: Vec<i32> = m.iter_from(&4).map(|(&k, _)| k).collect();
        assert_eq!(from, [5, 7]);
        assert_eq!(m.iter_from(&3).next(), Some((&3, &30)));
        assert_eq!(m.iter_from(&8).next(), None);
        for (&k, v) in m.iter_mut() {
            *v += k;
        }
        assert_eq!(m.peek(&7), Some(&77));
    }

    #[test]
    fn heavy_churn_respects_capacity() {
        let mut m = LruMap::new(8);
        for i in 0..1000 {
            m.insert(i % 50, i);
            assert!(m.len() <= 8);
        }
        assert_eq!(m.iter().count(), m.len());
    }

    /// The map this module shipped before the sorted vector — entries and
    /// a by-touch index in two ordered maps kept in lockstep — kept as the
    /// model the differential test below holds the vector to.
    mod model {
        use std::collections::BTreeMap;

        #[derive(Debug)]
        pub(super) struct ModelLru<K, V> {
            capacity: usize,
            tick: u64,
            entries: BTreeMap<K, (u64, V)>,
            by_tick: BTreeMap<u64, K>,
        }

        impl<K: Ord + Clone, V> ModelLru<K, V> {
            pub(super) fn new(capacity: usize) -> Self {
                ModelLru {
                    capacity,
                    tick: 0,
                    entries: BTreeMap::new(),
                    by_tick: BTreeMap::new(),
                }
            }

            pub(super) fn get(&mut self, key: &K) -> Option<&V> {
                self.tick += 1;
                let (old, _) = *self.entries.get(key)?;
                self.by_tick.remove(&old);
                self.by_tick.insert(self.tick, key.clone());
                let entry = self.entries.get_mut(key).unwrap();
                entry.0 = self.tick;
                Some(&entry.1)
            }

            pub(super) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
                self.get(key)?;
                self.entries.get_mut(key).map(|(_, v)| v)
            }

            pub(super) fn peek(&self, key: &K) -> Option<&V> {
                self.entries.get(key).map(|(_, v)| v)
            }

            pub(super) fn peek_mut(&mut self, key: &K) -> Option<&mut V> {
                self.entries.get_mut(key).map(|(_, v)| v)
            }

            pub(super) fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
                if self.capacity == 0 {
                    return Some((key, value));
                }
                self.tick += 1;
                if let Some((old, _)) = self.entries.get(&key) {
                    self.by_tick.remove(old);
                }
                self.by_tick.insert(self.tick, key.clone());
                self.entries.insert(key, (self.tick, value));
                if self.entries.len() > self.capacity {
                    let (_, victim) = self.by_tick.pop_first().unwrap();
                    let (_, v) = self.entries.remove(&victim).unwrap();
                    return Some((victim, v));
                }
                None
            }

            pub(super) fn remove(&mut self, key: &K) -> Option<V> {
                let (tick, v) = self.entries.remove(key)?;
                self.by_tick.remove(&tick);
                Some(v)
            }

            pub(super) fn clear(&mut self) {
                self.entries.clear();
                self.by_tick.clear();
            }

            pub(super) fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
                self.entries.iter().map(|(k, (_, v))| (k, v))
            }
        }
    }

    /// One step of the differential test: the operation and its key.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Get(u8),
        GetMut(u8),
        Peek(u8),
        PeekMut(u8),
        Insert(u8),
        Remove(u8),
        Clear,
    }

    /// Reads and inserts dominate, and a clear is rare enough that the
    /// map fills between clears.
    fn op() -> impl proptest::Strategy<Value = Op> {
        proptest::Strategy::prop_map((0u8..32, 0u8..12), |(code, k)| match code {
            0..=7 => Op::Get(k),
            8..=9 => Op::GetMut(k),
            10..=11 => Op::Peek(k),
            12..=13 => Op::PeekMut(k),
            14..=26 => Op::Insert(k),
            27..=30 => Op::Remove(k),
            _ => Op::Clear,
        })
    }

    proptest::proptest! {
        /// Differential test: over random operation sequences at
        /// capacities 0–8, the sorted vector returns what the two-map
        /// model returns, evicts the same pairs, and iterates the same
        /// entries in the same key order after every step. Values are
        /// the step number, and `get_mut` / `peek_mut` write it, so a
        /// wrong entry or a lost write shows in the next read.
        #[test]
        fn lru_matches_the_two_map_model(
            capacity in 0usize..=8,
            ops in proptest::collection::vec(op(), 0..200),
        ) {
            let mut lru = LruMap::new(capacity);
            let mut model = model::ModelLru::new(capacity);
            for (step, op) in (0u32..).zip(ops) {
                match op {
                    Op::Get(k) => proptest::prop_assert_eq!(lru.get(&k), model.get(&k)),
                    Op::GetMut(k) => {
                        let (got, want) = (lru.get_mut(&k), model.get_mut(&k));
                        proptest::prop_assert_eq!(got.is_some(), want.is_some());
                        if let (Some(got), Some(want)) = (got, want) {
                            proptest::prop_assert_eq!(*got, *want);
                            (*got, *want) = (step, step);
                        }
                    }
                    Op::Peek(k) => proptest::prop_assert_eq!(lru.peek(&k), model.peek(&k)),
                    Op::PeekMut(k) => {
                        let (got, want) = (lru.peek_mut(&k), model.peek_mut(&k));
                        proptest::prop_assert_eq!(got.is_some(), want.is_some());
                        if let (Some(got), Some(want)) = (got, want) {
                            proptest::prop_assert_eq!(*got, *want);
                            (*got, *want) = (step, step);
                        }
                    }
                    Op::Insert(k) => {
                        proptest::prop_assert_eq!(lru.insert(k, step), model.insert(k, step));
                    }
                    Op::Remove(k) => proptest::prop_assert_eq!(lru.remove(&k), model.remove(&k)),
                    Op::Clear => {
                        lru.clear();
                        model.clear();
                    }
                }
                proptest::prop_assert!(lru.len() <= capacity);
                proptest::prop_assert!(lru.iter().eq(model.iter()), "step {}: {:?}", step, op);
            }
        }
    }
}
