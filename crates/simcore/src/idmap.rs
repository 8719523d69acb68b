//! Dense, id-indexed containers: deterministic by construction.
//!
//! The simulator keys nearly all of its hot-path state by small dense ids
//! — block numbers, job numbers, sequence numbers, flow ids, node
//! indices. [`IdMap`] and [`IdSet`] exploit that: they store values in a
//! contiguous slot array indexed by the id itself (minus a sliding base
//! offset), so
//!
//! * lookup, insert and remove are O(1) — no tree rebalancing, no
//!   pointer chasing;
//! * iteration walks the slots in ascending key order — the same order a
//!   `BTreeMap` would produce, with none of a hash map's
//!   seed-dependence, so replacing a `BTreeMap` with an `IdMap` can
//!   never reorder events (the D02 bans in `clippy.toml` name hash
//!   containers only, for exactly this reason);
//! * scans touch contiguous memory, which is what the per-event
//!   invariant validation and the flow-resource update loop actually
//!   spend their time on.
//!
//! The price is that memory and iteration are O(*key span*) — the
//! distance between the smallest and largest **live** key — rather than
//! O(len). The containers self-compact: removing the lowest or highest
//! live key shrinks the span, so monotonically allocated ids (sequence
//! numbers, request ids) whose entries die young keep the span small.
//! Keys far above the live span may be *looked up* freely (they miss
//! without allocating); only `insert` grows the span. Do not key an
//! `IdMap` by sparse or adversarial ids — that is what `BTreeMap`
//! remains for.

use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;

/// A key type that is (or wraps) a small dense index.
///
/// `from_index(index(k)) == k` must hold, and `Ord` must agree with the
/// index order — both are true for the id newtypes (`BlockId`, `JobId`,
/// `FlowId`, …) that wrap an unsigned integer.
pub trait DenseId: Copy + Ord {
    /// The key as a slot index.
    fn index(self) -> usize;
    /// The key for a slot index.
    fn from_index(index: usize) -> Self;
}

impl DenseId for usize {
    fn index(self) -> usize {
        self
    }
    fn from_index(index: usize) -> Self {
        index
    }
}

impl DenseId for u64 {
    #[expect(
        clippy::expect_used,
        reason = "cannot fail on 64-bit targets; a guard against 32-bit truncation"
    )]
    fn index(self) -> usize {
        usize::try_from(self).expect("id exceeds the address space")
    }
    fn from_index(index: usize) -> Self {
        index as u64
    }
}

impl DenseId for u32 {
    fn index(self) -> usize {
        self as usize
    }
    #[expect(
        clippy::expect_used,
        reason = "u32 ids only ever index slots they created; a wider index is a caller bug"
    )]
    fn from_index(index: usize) -> Self {
        u32::try_from(index).expect("index exceeds u32 id space")
    }
}

/// An ordered map from a dense id to `V`, backed by a sliding window of
/// slots (see the [module docs](self) for the determinism and complexity
/// story).
///
/// ```
/// use ignem_simcore::idmap::IdMap;
///
/// let mut m: IdMap<u64, &str> = IdMap::new();
/// m.insert(7, "seven");
/// m.insert(3, "three");
/// assert_eq!(m.get(&7), Some(&"seven"));
/// // Iteration is in ascending key order, like a BTreeMap.
/// assert_eq!(m.iter().map(|(k, _)| k).collect::<Vec<_>>(), vec![3, 7]);
/// ```
#[derive(Clone)]
pub struct IdMap<K, V> {
    /// Key index of `slots[0]`; meaningless while `slots` is empty.
    base: usize,
    slots: VecDeque<Option<V>>,
    len: usize,
    _key: PhantomData<K>,
}

impl<K: DenseId, V> IdMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        IdMap {
            base: 0,
            slots: VecDeque::new(),
            len: 0,
            _key: PhantomData,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry (keeps the allocation).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
        self.base = 0;
    }

    /// The slot position of `key`, if it falls inside the current window.
    fn pos(&self, key: K) -> Option<usize> {
        let i = key.index();
        if self.slots.is_empty() || i < self.base {
            return None;
        }
        let off = i - self.base;
        (off < self.slots.len()).then_some(off)
    }

    /// Returns a reference to the value for `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.pos(*key).and_then(|p| self.slots[p].as_ref())
    }

    /// Returns a mutable reference to the value for `key`.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.pos(*key) {
            Some(p) => self.slots[p].as_mut(),
            None => None,
        }
    }

    /// Whether `key` has a value.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `value` at `key`, returning the previous value if any.
    /// Grows the slot window to cover `key` when needed.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let i = key.index();
        if self.slots.is_empty() {
            self.base = i;
            self.slots.push_back(Some(value));
            self.len = 1;
            return None;
        }
        if i < self.base {
            for _ in 0..(self.base - i - 1) {
                self.slots.push_front(None);
            }
            self.slots.push_front(Some(value));
            self.base = i;
            self.len += 1;
            return None;
        }
        let off = i - self.base;
        if off >= self.slots.len() {
            for _ in 0..(off - self.slots.len()) {
                self.slots.push_back(None);
            }
            self.slots.push_back(Some(value));
            self.len += 1;
            return None;
        }
        let old = self.slots[off].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the value at `key`. Shrinks the slot window
    /// when the lowest or highest live key goes away (this is what keeps
    /// the span small under monotone id allocation).
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let p = self.pos(*key)?;
        let old = self.slots[p].take();
        if old.is_some() {
            self.len -= 1;
            if self.len == 0 {
                self.slots.clear();
                self.base = 0;
            } else {
                while matches!(self.slots.front(), Some(None)) {
                    self.slots.pop_front();
                    self.base += 1;
                }
                while matches!(self.slots.back(), Some(None)) {
                    self.slots.pop_back();
                }
            }
        }
        old
    }

    /// Returns the value at `key`, inserting `V::default()` first if the
    /// key is vacant (the `entry(k).or_default()` idiom).
    pub fn entry_or_default(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        self.entry_or_insert_with(key, V::default)
    }

    /// Iterates `(key, &value)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        let base = self.base;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(off, slot)| Some((K::from_index(base + off), slot.as_ref()?)))
    }

    /// Iterates `(key, &mut value)` in ascending key order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> {
        let base = self.base;
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(move |(off, slot)| Some((K::from_index(base + off), slot.as_mut()?)))
    }

    /// Iterates keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }

    /// Iterates mutable values in ascending key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut().filter_map(|s| s.as_mut())
    }

    /// Returns the value at `key`, inserting `make()` first if the key is
    /// vacant (the `entry(k).or_insert_with(..)` idiom).
    #[expect(
        clippy::expect_used,
        reason = "post-insert invariant: the key was inserted just above"
    )]
    pub fn entry_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        if !self.contains_key(&key) {
            self.insert(key, make());
        }
        let p = self.pos(key).expect("just inserted");
        self.slots[p].as_mut().expect("just inserted")
    }

    /// Consumes the map, iterating values in ascending key order.
    pub fn into_values(self) -> impl Iterator<Item = V> {
        self.slots.into_iter().flatten()
    }

    /// Consumes the map, iterating keys in ascending order.
    pub fn into_keys(self) -> impl Iterator<Item = K> {
        let base = self.base;
        self.slots
            .into_iter()
            .enumerate()
            .filter_map(move |(off, slot)| slot.map(|_| K::from_index(base + off)))
    }

    /// Keeps only the entries for which `keep` returns true.
    pub fn retain(&mut self, mut keep: impl FnMut(K, &mut V) -> bool) {
        let base = self.base;
        let mut removed = 0usize;
        for (off, slot) in self.slots.iter_mut().enumerate() {
            if let Some(v) = slot {
                if !keep(K::from_index(base + off), v) {
                    *slot = None;
                    removed += 1;
                }
            }
        }
        self.len -= removed;
        if self.len == 0 {
            self.slots.clear();
            self.base = 0;
        } else if removed > 0 {
            while matches!(self.slots.front(), Some(None)) {
                self.slots.pop_front();
                self.base += 1;
            }
            while matches!(self.slots.back(), Some(None)) {
                self.slots.pop_back();
            }
        }
    }
}

impl<K: DenseId, V> Default for IdMap<K, V> {
    fn default() -> Self {
        IdMap::new()
    }
}

impl<K: DenseId, V> IntoIterator for IdMap<K, V> {
    type Item = (K, V);
    type IntoIter = IntoIter<K, V>;

    fn into_iter(self) -> IntoIter<K, V> {
        IntoIter {
            base: self.base,
            inner: self.slots.into_iter().enumerate(),
            _key: PhantomData,
        }
    }
}

/// Owning iterator over an [`IdMap`], ascending key order.
pub struct IntoIter<K, V> {
    base: usize,
    inner: std::iter::Enumerate<std::collections::vec_deque::IntoIter<Option<V>>>,
    _key: PhantomData<K>,
}

impl<K: DenseId, V> Iterator for IntoIter<K, V> {
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        for (off, slot) in self.inner.by_ref() {
            if let Some(v) = slot {
                return Some((K::from_index(self.base + off), v));
            }
        }
        None
    }
}

impl<K: DenseId + fmt::Debug, V: fmt::Debug> fmt::Debug for IdMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: DenseId, V: PartialEq> PartialEq for IdMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self
                .iter()
                .zip(other.iter())
                .all(|(a, b)| a.0 == b.0 && a.1 == b.1)
    }
}

impl<K: DenseId, V: Eq> Eq for IdMap<K, V> {}

impl<K: DenseId, V> FromIterator<(K, V)> for IdMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut m = IdMap::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

/// An ordered set of dense ids: an [`IdMap`] to `()` with set semantics.
///
/// ```
/// use ignem_simcore::idmap::IdSet;
///
/// let mut s: IdSet<u64> = IdSet::new();
/// assert!(s.insert(5));
/// assert!(!s.insert(5));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![5]);
/// ```
pub struct IdSet<K> {
    map: IdMap<K, ()>,
}

impl<K: DenseId> Clone for IdSet<K> {
    fn clone(&self) -> Self {
        IdSet {
            map: self.map.clone(),
        }
    }
}

impl<K: DenseId> Default for IdSet<K> {
    fn default() -> Self {
        IdSet::new()
    }
}

impl<K: DenseId> PartialEq for IdSet<K> {
    fn eq(&self, other: &Self) -> bool {
        self.map == other.map
    }
}

impl<K: DenseId> Eq for IdSet<K> {}

impl<K: DenseId> IdSet<K> {
    /// Creates an empty set.
    pub fn new() -> Self {
        IdSet { map: IdMap::new() }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Adds `key`; returns true if it was not already a member.
    pub fn insert(&mut self, key: K) -> bool {
        self.map.insert(key, ()).is_none()
    }

    /// Removes `key`; returns true if it was a member.
    pub fn remove(&mut self, key: &K) -> bool {
        self.map.remove(key).is_some()
    }

    /// Whether `key` is a member.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Iterates members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = K> + '_ {
        self.map.keys()
    }

    /// Keeps only the members for which `keep` returns true.
    pub fn retain(&mut self, mut keep: impl FnMut(K) -> bool) {
        self.map.retain(|k, ()| keep(k));
    }
}

impl<K: DenseId + fmt::Debug> fmt::Debug for IdSet<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<K: DenseId> FromIterator<K> for IdSet<K> {
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> Self {
        IdSet {
            map: iter.into_iter().map(|k| (k, ())).collect(),
        }
    }
}

impl<K: DenseId> IntoIterator for IdSet<K> {
    type Item = K;
    type IntoIter = SetIntoIter<K>;

    fn into_iter(self) -> SetIntoIter<K> {
        SetIntoIter {
            inner: self.map.into_iter(),
        }
    }
}

/// Owning iterator over an [`IdSet`], ascending order.
pub struct SetIntoIter<K> {
    inner: IntoIter<K, ()>,
}

impl<K: DenseId> Iterator for SetIntoIter<K> {
    type Item = K;

    fn next(&mut self) -> Option<K> {
        self.inner.next().map(|(k, ())| k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: IdMap<u64, i32> = IdMap::new();
        assert_eq!(m.insert(10, 1), None);
        assert_eq!(m.insert(5, 2), None);
        assert_eq!(m.insert(10, 3), Some(1));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&5), Some(&2));
        assert_eq!(m.remove(&5), Some(2));
        assert_eq!(m.remove(&5), None);
        assert_eq!(m.len(), 1);
        assert!(m.contains_key(&10));
    }

    #[test]
    fn iteration_is_in_key_order() {
        let mut m: IdMap<u64, &str> = IdMap::new();
        for k in [9, 2, 7, 4] {
            m.insert(k, "x");
        }
        let keys: Vec<u64> = m.keys().collect();
        assert_eq!(keys, vec![2, 4, 7, 9]);
    }

    #[test]
    fn window_compacts_under_monotone_churn() {
        // Monotone allocation with short-lived entries must keep the slot
        // window small — this is the SeqNo/RequestId usage pattern.
        let mut m: IdMap<u64, u64> = IdMap::new();
        for i in 0..10_000u64 {
            m.insert(i, i);
            if i >= 4 {
                m.remove(&(i - 4));
            }
        }
        assert_eq!(m.len(), 4);
        assert!(
            m.slots.len() <= 8,
            "window failed to compact: {} slots for {} entries",
            m.slots.len(),
            m.len()
        );
    }

    #[test]
    fn far_lookups_do_not_allocate() {
        let mut m: IdMap<u64, u64> = IdMap::new();
        m.insert(3, 1);
        // The disk layer probes flush ids near 1 << 62; a miss must not
        // widen the window.
        assert_eq!(m.get(&(1 << 62)), None);
        assert!(!m.contains_key(&(1 << 62)));
        assert_eq!(m.slots.len(), 1);
    }

    #[test]
    fn entry_or_default_inserts_once() {
        let mut m: IdMap<u64, Vec<u32>> = IdMap::new();
        m.entry_or_default(4).push(1);
        m.entry_or_default(4).push(2);
        assert_eq!(m.get(&4), Some(&vec![1, 2]));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn set_semantics_match_btreeset() {
        let mut s: IdSet<u64> = IdSet::new();
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.contains(&3));
        assert!(s.remove(&3));
        assert!(!s.remove(&3));
        assert!(s.is_empty());
    }

    /// The container-equivalence property test: random op sequences from
    /// the in-tree rng must leave an `IdMap` and a `BTreeMap` observably
    /// identical (same len, same lookups, same ordered iteration).
    #[test]
    fn property_idmap_matches_btreemap() {
        let mut rng = SimRng::new(0x1D_A1AB);
        for _round in 0..50 {
            let mut idm: IdMap<u64, u64> = IdMap::new();
            let mut btm: BTreeMap<u64, u64> = BTreeMap::new();
            for op in 0..400 {
                let key = rng.index(48) as u64;
                match rng.index(5) {
                    0 | 1 => {
                        assert_eq!(idm.insert(key, op), btm.insert(key, op));
                    }
                    2 => {
                        assert_eq!(idm.remove(&key), btm.remove(&key));
                    }
                    3 => {
                        assert_eq!(idm.get(&key), btm.get(&key));
                        assert_eq!(idm.contains_key(&key), btm.contains_key(&key));
                    }
                    _ => {
                        if let Some(v) = idm.get_mut(&key) {
                            *v += 1;
                        }
                        if let Some(v) = btm.get_mut(&key) {
                            *v += 1;
                        }
                    }
                }
                assert_eq!(idm.len(), btm.len());
            }
            let a: Vec<(u64, u64)> = idm.iter().map(|(k, v)| (k, *v)).collect();
            let b: Vec<(u64, u64)> = btm.iter().map(|(k, v)| (*k, *v)).collect();
            assert_eq!(a, b, "ordered iteration must match BTreeMap");
            let ka: Vec<u64> = idm.clone().into_keys().collect();
            let kb: Vec<u64> = btm.keys().copied().collect();
            assert_eq!(ka, kb);
        }
    }

    /// Same property for the set against `BTreeSet`.
    #[test]
    fn property_idset_matches_btreeset() {
        let mut rng = SimRng::new(0x5E7_5EED);
        for _round in 0..50 {
            let mut ids: IdSet<u64> = IdSet::new();
            let mut bts: BTreeSet<u64> = BTreeSet::new();
            for _op in 0..400 {
                let key = rng.index(48) as u64;
                match rng.index(3) {
                    0 | 1 => assert_eq!(ids.insert(key), bts.insert(key)),
                    _ => assert_eq!(ids.remove(&key), bts.remove(&key)),
                }
                assert_eq!(ids.len(), bts.len());
                assert_eq!(ids.contains(&key), bts.contains(&key));
            }
            let a: Vec<u64> = ids.iter().collect();
            let b: Vec<u64> = bts.iter().copied().collect();
            assert_eq!(a, b, "ordered iteration must match BTreeSet");
        }
    }

    #[test]
    fn retain_keeps_order_and_len() {
        let mut m: IdMap<u64, u64> = (0..20u64).map(|k| (k, k * 2)).collect();
        m.retain(|k, _| k % 3 == 0);
        assert_eq!(m.len(), 7);
        assert_eq!(m.keys().collect::<Vec<_>>(), vec![0, 3, 6, 9, 12, 15, 18]);
        // Front/back compaction after retain.
        m.retain(|k, _| k != 0 && k != 18);
        assert_eq!(m.slots.front().map(|s| s.is_some()), Some(true));
        assert_eq!(m.slots.back().map(|s| s.is_some()), Some(true));
    }
}
