//! Packed bitsets indexed by dense ids.
//!
//! At datacenter scale — 12k nodes — the simulator scans per-node flags
//! on every heartbeat, eviction pass, cancellation sweep and network
//! timer. Packing each boolean column into 64-bit words keeps those scans
//! cache-resident: a flag over 12 288 nodes fits in 1.5 KiB of bitmap
//! instead of 12 KiB of `Vec<bool>`, and a scan that skips unset bits
//! discards 64 nodes per word test instead of loading a byte each. The
//! cluster's liveness columns and the network fabric's busy-NIC index
//! share this one type.

use crate::idmap::DenseId;
use crate::rng::SimRng;

/// A packed boolean column: one bit per index, 64 indices per word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitCol {
    words: Vec<u64>,
    len: usize,
}

impl BitCol {
    /// A column of `len` bits, every bit set to `value`.
    pub fn new(len: usize, value: bool) -> Self {
        let fill = if value { u64::MAX } else { 0 };
        let mut col = BitCol {
            words: vec![fill; len.div_ceil(64)],
            len,
        };
        col.trim_tail();
        col
    }

    /// Clears the bits beyond `len` in the last word so popcounts and
    /// word-level scans never see ghost indices.
    fn trim_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of bits in the column.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of bounds (len {})", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit {i} out of bounds (len {})", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Indices of set bits, ascending; skips 64 indices per zero word.
    pub fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(wi * 64 + bit)
            })
        })
    }

    /// Visits the set bits in ascending order and clears each one for
    /// which `keep` returns `false`. Bits are read a word at a time, so
    /// `keep` sees exactly the bits set when its word was reached.
    pub fn retain_set(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for wi in 0..self.words.len() {
            let mut rest = self.words[wi];
            while rest != 0 {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if !keep(wi * 64 + bit) {
                    self.words[wi] &= !(1u64 << bit);
                }
            }
        }
    }

    /// Index of the `k`-th set bit (0-based, ascending), or `None` when
    /// at most `k` bits are set. Skips whole words by popcount.
    pub fn nth_set(&self, mut k: usize) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            let ones = w.count_ones() as usize;
            if k < ones {
                let mut rest = w;
                for _ in 0..k {
                    rest &= rest - 1;
                }
                return Some(wi * 64 + rest.trailing_zeros() as usize);
            }
            k -= ones;
        }
        None
    }

    /// Number of set bits outside `excluded` (an index repeated in
    /// `excluded` counts once).
    pub fn count_ones_excluding<T: DenseId>(&self, excluded: &[T]) -> usize {
        self.count_ones() - self.excluded_set_up_to(excluded, usize::MAX)
    }

    /// Number of distinct indices in `excluded` that are set and at most
    /// `pos`.
    fn excluded_set_up_to<T: DenseId>(&self, excluded: &[T], pos: usize) -> usize {
        excluded
            .iter()
            .enumerate()
            .filter(|&(i, &e)| {
                let e = e.index();
                e <= pos
                    && e < self.len
                    && self.get(e)
                    && !excluded[..i].iter().any(|p| p.index() == e)
            })
            .count()
    }

    /// Draws a set bit outside `excluded` uniformly at random, or `None`
    /// when there is none. Consumes exactly one [`SimRng::index`] draw
    /// when some bit qualifies (none otherwise) and picks the same index
    /// as collecting the qualifying bits in ascending order and calling
    /// [`SimRng::choose`] — without materialising that list. Costs
    /// O(words × `excluded.len()`), so `excluded` should be short.
    pub fn choose<T: DenseId>(&self, rng: &mut SimRng, excluded: &[T]) -> Option<T> {
        let n = self.count_ones_excluding(excluded);
        if n == 0 {
            return None;
        }
        let k = rng.index(n);
        // The k-th qualifying bit is the j-th set bit for the least j with
        // j = k + (excluded set bits at or below it). The iteration below
        // rises monotonically to that least fixed point in at most
        // `excluded.len()` steps.
        let mut j = k;
        loop {
            // j < n + excluded set bits = count_ones, so the bit exists.
            let pos = self.nth_set(j)?;
            let next = k + self.excluded_set_up_to(excluded, pos);
            if next == j {
                return Some(T::from_index(pos));
            }
            j = next;
        }
    }

    /// Resident bytes of the column's backing storage.
    pub fn resident_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip_across_word_boundaries() {
        let mut col = BitCol::new(130, false);
        for i in [0, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!col.get(i));
            col.set(i, true);
            assert!(col.get(i));
        }
        assert_eq!(col.count_ones(), 8);
        col.set(64, false);
        assert!(!col.get(64));
        assert_eq!(col.count_ones(), 7);
    }

    #[test]
    fn new_true_has_no_ghost_bits() {
        let col = BitCol::new(70, true);
        assert_eq!(col.count_ones(), 70);
        assert_eq!(col.iter_set().count(), 70);
        assert_eq!(col.nth_set(69), Some(69));
        assert_eq!(col.nth_set(70), None, "tail bits past len are never set");
    }

    #[test]
    fn iter_set_skips_zero_words() {
        let mut col = BitCol::new(1000, false);
        for i in [3, 64, 700, 999] {
            col.set(i, true);
        }
        let set: Vec<usize> = col.iter_set().collect();
        assert_eq!(set, vec![3, 64, 700, 999]);
    }

    #[test]
    fn retain_set_visits_ascending_and_clears_rejected() {
        let mut col = BitCol::new(200, false);
        for i in [0, 5, 63, 64, 130, 199] {
            col.set(i, true);
        }
        let mut seen = Vec::new();
        col.retain_set(|i| {
            seen.push(i);
            i % 2 == 1
        });
        assert_eq!(seen, vec![0, 5, 63, 64, 130, 199]);
        assert_eq!(col.iter_set().collect::<Vec<_>>(), vec![5, 63, 199]);
    }

    /// A bitmap of `len` bits with each bit set with probability
    /// `density`/8, plus the first and last bit of every word forced to a
    /// random value so word boundaries are always exercised.
    fn random_col(rng: &mut SimRng, len: usize, density: u64) -> BitCol {
        let mut col = BitCol::new(len, false);
        for i in 0..len {
            let edge = i % 64 == 0 || i % 64 == 63 || i + 1 == len;
            let p = if edge { 4 } else { density };
            col.set(i, (rng.index(8) as u64) < p);
        }
        col
    }

    #[test]
    fn nth_set_matches_iter_set() {
        let mut rng = SimRng::new(0x5e1ec7);
        for round in 0..200 {
            let len = 1 + rng.index(300);
            let col = random_col(&mut rng, len, round % 9);
            let set: Vec<usize> = col.iter_set().collect();
            for (k, &want) in set.iter().enumerate() {
                assert_eq!(col.nth_set(k), Some(want), "len {len} k {k}");
            }
            assert_eq!(col.nth_set(set.len()), None);
            assert_eq!(col.nth_set(usize::MAX), None);
        }
    }

    #[test]
    fn choose_matches_collect_then_choose() {
        let mut rng = SimRng::new(0xb17c01);
        for round in 0..500 {
            let len = 1 + rng.index(260);
            let col = random_col(&mut rng, len, round % 9);
            // Up to three excluded indices, set or not, possibly repeated.
            let excluded: Vec<usize> = (0..rng.index(4)).map(|_| rng.index(len)).collect();
            let want_list: Vec<usize> = col.iter_set().filter(|i| !excluded.contains(i)).collect();
            let seed = rng.next_u64();
            let (mut a, mut b) = (SimRng::new(seed), SimRng::new(seed));
            let want = (!want_list.is_empty()).then(|| *a.choose(&want_list));
            assert_eq!(col.count_ones_excluding(&excluded), want_list.len());
            let got = col.choose(&mut b, &excluded);
            assert_eq!(got, want, "len {len} excluded {excluded:?}");
            assert_eq!(a.next_u64(), b.next_u64(), "same draws consumed");
        }
    }

    #[test]
    fn choose_on_empty_or_fully_excluded_draws_nothing() {
        let col = BitCol::new(100, false);
        let mut a = SimRng::new(3);
        let mut b = SimRng::new(3);
        assert_eq!(col.choose::<usize>(&mut a, &[]), None);
        let mut one = BitCol::new(100, false);
        one.set(64, true);
        assert_eq!(one.choose(&mut a, &[64usize, 64]), None);
        assert_eq!(one.choose::<usize>(&mut a, &[]), Some(64));
        b.index(1);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        BitCol::new(10, false).get(10);
    }
}
