//! A compact fixed-capacity bit set used for adjacency rows.
//!
//! NoC application graphs are small (tens of vertices), so a dense bit-set
//! adjacency representation gives O(1) edge queries and very fast VF2
//! feasibility checks via word-parallel intersection counts.

/// A fixed-capacity set of `usize` values backed by `u64` words.
///
/// The capacity is chosen at construction and never grows; inserting an
/// out-of-range value panics. All operations are O(capacity / 64) or better.
///
/// # Examples
///
/// ```
/// use noc_graph::BitSet;
///
/// let mut s = BitSet::new(100);
/// s.insert(3);
/// s.insert(64);
/// assert!(s.contains(3));
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold values in `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Returns the capacity (exclusive upper bound on storable values).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `value`, returning `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `value >= self.capacity()`.
    pub fn insert(&mut self, value: usize) -> bool {
        assert!(
            value < self.capacity,
            "bitset insert out of range: {value} >= {}",
            self.capacity
        );
        let (w, b) = (value / 64, value % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes `value`, returning `true` if it was present.
    pub fn remove(&mut self, value: usize) -> bool {
        if value >= self.capacity {
            return false;
        }
        let (w, b) = (value / 64, value % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Returns `true` if `value` is in the set.
    pub fn contains(&self, value: usize) -> bool {
        if value >= self.capacity {
            return false;
        }
        self.words[value / 64] & (1 << (value % 64)) != 0
    }

    /// Number of values in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set holds no values.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every value.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Number of values present in both `self` and `other`.
    ///
    /// Sets of different capacities are compared over the shorter word list.
    pub fn intersection_len(&self, other: &BitSet) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// In-place intersection with `other`: `self` keeps only the values
    /// also present in `other`. Word-parallel; values of `other` beyond
    /// `self`'s capacity are ignored (they cannot be in `self` anyway).
    ///
    /// # Examples
    ///
    /// ```
    /// use noc_graph::BitSet;
    ///
    /// let mut a: BitSet = [1usize, 2, 70].into_iter().collect();
    /// let b: BitSet = [2usize, 3, 70].into_iter().collect();
    /// a.intersect_with(&b);
    /// assert_eq!(a.iter().collect::<Vec<_>>(), vec![2, 70]);
    /// ```
    pub fn intersect_with(&mut self, other: &BitSet) {
        let common = self.words.len().min(other.words.len());
        for (a, b) in self.words[..common].iter_mut().zip(&other.words) {
            *a &= b;
        }
        for a in &mut self.words[common..] {
            *a = 0;
        }
    }

    /// Overwrites `self`'s contents with `other`'s.
    ///
    /// # Panics
    ///
    /// Panics if `other` holds values beyond `self`'s capacity (i.e. has
    /// more backing words with any of the extra ones nonzero).
    pub fn copy_from(&mut self, other: &BitSet) {
        assert!(
            other.words.len() <= self.words.len()
                || other.words[self.words.len()..].iter().all(|&w| w == 0),
            "bitset copy would overflow capacity"
        );
        let common = self.words.len().min(other.words.len());
        self.words[..common].copy_from_slice(&other.words[..common]);
        for a in &mut self.words[common..] {
            *a = 0;
        }
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    ///
    /// Panics if `other` has values beyond `self`'s capacity.
    pub fn union_with(&mut self, other: &BitSet) {
        assert!(
            other.words.len() <= self.words.len()
                || other.words[self.words.len()..].iter().all(|&w| w == 0),
            "bitset union would overflow capacity"
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Iterates over the values in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The backing words, least-significant word first.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// A capacity-independent, hashable key for the set's *contents*.
    ///
    /// [`BitSet`]'s derived `Eq`/`Hash` include the capacity, so two sets
    /// holding the same values at different capacities compare unequal.
    /// The stable key trims trailing zero words, making it a function of
    /// the member values alone — the property a cache keyed by "which
    /// edges remain" needs (see the decomposition engine's match cache).
    ///
    /// # Examples
    ///
    /// ```
    /// use noc_graph::BitSet;
    ///
    /// let mut small = BitSet::new(10);
    /// let mut large = BitSet::new(1000);
    /// small.insert(3);
    /// large.insert(3);
    /// assert_ne!(small, large); // capacities differ
    /// assert_eq!(small.stable_key(), large.stable_key()); // contents agree
    /// ```
    pub fn stable_key(&self) -> BitSetKey {
        let mut end = self.words.len();
        while end > 0 && self.words[end - 1] == 0 {
            end -= 1;
        }
        BitSetKey(self.words[..end].to_vec().into_boxed_slice())
    }
}

/// A capacity-independent content key produced by [`BitSet::stable_key`];
/// implements `Hash`/`Eq`, so it can key hash maps (e.g. the decomposition
/// engine's VF2 match cache).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitSetKey(Box<[u64]>);

impl BitSetKey {
    /// The trimmed backing words, least-significant word first.
    pub fn words(&self) -> &[u64] {
        &self.0
    }

    /// Rebuilds a key from backing words (least-significant first),
    /// trimming trailing zero words so the result is canonical — the
    /// inverse of [`words`](Self::words), used to key match-cache lookups
    /// straight from a search node's edge mask.
    ///
    /// # Examples
    ///
    /// ```
    /// use noc_graph::{BitSet, BitSetKey};
    ///
    /// let key = BitSet::from_iter([3usize, 64]).stable_key();
    /// assert_eq!(BitSetKey::from_words(key.words().to_vec()), key);
    /// // Trailing zero words never distinguish keys.
    /// assert_eq!(BitSetKey::from_words(vec![8, 1, 0, 0]).words(), &[8, 1]);
    /// ```
    pub fn from_words(mut words: Vec<u64>) -> BitSetKey {
        while words.last() == Some(&0) {
            words.pop();
        }
        BitSetKey(words.into_boxed_slice())
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects values into a set sized to the largest value seen.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let values: Vec<usize> = iter.into_iter().collect();
        let cap = values.iter().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(cap);
        for v in values {
            s.insert(v);
        }
        s
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

/// Ascending-order iterator over a [`BitSet`], created by [`BitSet::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a BitSet,
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let b = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.word * 64 + b);
            }
            self.word += 1;
            if self.word >= self.set.words.len() {
                return None;
            }
            self.bits = self.set.words[self.word];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_has_no_members() {
        let s = BitSet::new(10);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(0));
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn insert_and_contains_across_word_boundary() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64)); // duplicate
        assert_eq!(s.len(), 4);
        for v in [0, 63, 64, 129] {
            assert!(s.contains(v), "missing {v}");
        }
        assert!(!s.contains(1));
        assert!(!s.contains(128));
    }

    #[test]
    fn remove_round_trips() {
        let mut s = BitSet::new(70);
        s.insert(5);
        s.insert(65);
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(!s.contains(5));
        assert!(s.contains(65));
        assert!(!s.remove(200)); // out of range is a no-op
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        BitSet::new(4).insert(4);
    }

    #[test]
    fn iteration_is_ascending() {
        let mut s = BitSet::new(200);
        for v in [199, 3, 77, 64, 0] {
            s.insert(v);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 3, 64, 77, 199]);
    }

    #[test]
    fn intersection_len_counts_common_members() {
        let a: BitSet = [1usize, 2, 3, 70].into_iter().collect();
        let b: BitSet = [2usize, 3, 4, 70, 71].into_iter().collect();
        assert_eq!(a.intersection_len(&b), 3);
        assert_eq!(b.intersection_len(&a), 3);
    }

    #[test]
    fn intersect_with_keeps_common_members() {
        let mut a: BitSet = [1usize, 2, 3, 70].into_iter().collect();
        let b: BitSet = [2usize, 3, 4, 70, 200].into_iter().collect();
        a.intersect_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![2, 3, 70]);
        // A shorter other clears self's high words.
        let mut c: BitSet = [1usize, 200].into_iter().collect();
        let d: BitSet = [1usize].into_iter().collect();
        c.intersect_with(&d);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn copy_from_overwrites() {
        let mut a: BitSet = [1usize, 200].into_iter().collect();
        let b: BitSet = [3usize, 64].into_iter().collect();
        a.copy_from(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 64]);
        assert_eq!(a.capacity(), 201); // capacity unchanged
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn copy_from_rejects_overflow() {
        let mut a = BitSet::new(4);
        let b: BitSet = [70usize].into_iter().collect();
        a.copy_from(&b);
    }

    #[test]
    fn union_with_merges() {
        let mut a = BitSet::new(100);
        a.insert(1);
        let b: BitSet = [2usize, 99].into_iter().collect();
        a.union_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 99]);
    }

    #[test]
    fn clear_empties() {
        let mut s: BitSet = [1usize, 2, 3].into_iter().collect();
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn from_iterator_sizes_to_max() {
        let s: BitSet = [10usize, 5].into_iter().collect();
        assert_eq!(s.capacity(), 11);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn stable_key_ignores_capacity() {
        let mut a = BitSet::new(65);
        let mut b = BitSet::new(1024);
        for v in [0, 63, 64] {
            a.insert(v);
            b.insert(v);
        }
        assert_eq!(a.stable_key(), b.stable_key());
        b.insert(700);
        assert_ne!(a.stable_key(), b.stable_key());
        // Empty sets of any capacity share the empty key.
        assert_eq!(BitSet::new(0).stable_key(), BitSet::new(999).stable_key());
        assert_eq!(BitSet::new(0).stable_key().words(), &[] as &[u64]);
    }

    #[test]
    fn stable_key_is_hashable() {
        use std::collections::HashMap;
        let mut map = HashMap::new();
        let s: BitSet = [1usize, 2, 3].into_iter().collect();
        map.insert(s.stable_key(), "first");
        let t: BitSet = {
            let mut t = BitSet::new(500);
            for v in [1usize, 2, 3] {
                t.insert(v);
            }
            t
        };
        assert_eq!(map.get(&t.stable_key()), Some(&"first"));
    }

    #[test]
    fn debug_is_nonempty() {
        let s: BitSet = [1usize].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{1}");
        let empty = BitSet::new(0);
        assert_eq!(format!("{empty:?}"), "{}");
    }
}
