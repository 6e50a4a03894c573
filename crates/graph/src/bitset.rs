//! A compact growable bitset used for dataflow-graph node sets.
//!
//! The design-space explorer manipulates millions of candidate node sets;
//! `BitSet` gives O(words) union/equality/hash instead of allocating tree
//! sets per candidate.

/// A growable set of small unsigned integers backed by 64-bit words.
///
/// # Example
///
/// ```
/// use isax_graph::BitSet;
///
/// let mut s = BitSet::new();
/// s.insert(3);
/// s.insert(70);
/// assert!(s.contains(3));
/// assert!(!s.contains(4));
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 70]);
/// ```
#[derive(Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BitSet {
    words: Vec<u64>,
}

impl Clone for BitSet {
    fn clone(&self) -> Self {
        BitSet {
            words: self.words.clone(),
        }
    }

    /// Reuses `self`'s allocation (the derived `clone_from` would not).
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
    }
}

impl BitSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        BitSet { words: Vec::new() }
    }

    /// Creates an empty set with capacity for values `< capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    /// Inserts `v`; returns true if it was not already present.
    pub fn insert(&mut self, v: usize) -> bool {
        let (w, b) = (v / 64, v % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes `v`; returns true if it was present.
    pub fn remove(&mut self, v: usize) -> bool {
        let (w, b) = (v / 64, v % 64);
        if w >= self.words.len() {
            return false;
        }
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        if had {
            self.normalize();
        }
        had
    }

    /// Membership test.
    pub fn contains(&self, v: usize) -> bool {
        let (w, b) = (v / 64, v % 64);
        w < self.words.len() && self.words[w] & (1 << b) != 0
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// The words from the first to the last non-zero one, with the index
    /// of the first: a compact key that is equal exactly for equal sets
    /// (empty: `(0, [])`).
    pub fn trimmed_words(&self) -> (usize, &[u64]) {
        let Some(first) = self.words.iter().position(|&w| w != 0) else {
            return (0, &[]);
        };
        let last = self.words.iter().rposition(|&w| w != 0).unwrap_or(first);
        (first, &self.words[first..=last])
    }

    /// The largest element, if any.
    pub fn last(&self) -> Option<usize> {
        let wi = self.words.iter().rposition(|&w| w != 0)?;
        Some(wi * 64 + 63 - self.words[wi].leading_zeros() as usize)
    }

    /// Returns a copy with `v` inserted.
    pub fn with(&self, v: usize) -> Self {
        let mut s = self.clone();
        s.insert(v);
        s
    }

    /// True if `self` and `other` share no elements.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & b == 0)
    }

    /// True if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words.iter().enumerate().all(|(i, &w)| {
            let o = other.words.get(i).copied().unwrap_or(0);
            w & !o == 0
        })
    }

    /// Removes all elements, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Adds every element of `other` to `self`.
    pub fn union_with(&mut self, other: &BitSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, &b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// Drop trailing zero words so that equality and hashing are canonical.
    fn normalize(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut s = BitSet::new();
        for v in iter {
            s.insert(v);
        }
        s
    }
}

impl Extend<usize> for BitSet {
    fn extend<T: IntoIterator<Item = usize>>(&mut self, iter: T) {
        for v in iter {
            self.insert(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new();
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.contains(5));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(s.is_empty());
    }

    #[test]
    fn equality_is_canonical_after_removal() {
        let mut a = BitSet::new();
        a.insert(200);
        a.remove(200);
        let b = BitSet::new();
        assert_eq!(a, b, "trailing empty words must not break equality");
    }

    #[test]
    fn iteration_order_ascending() {
        let s: BitSet = [100usize, 1, 64, 63].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 63, 64, 100]);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn subset_and_disjoint() {
        let a: BitSet = [1usize, 2, 3].into_iter().collect();
        let b: BitSet = [1usize, 2, 3, 99].into_iter().collect();
        let c: BitSet = [200usize].into_iter().collect();
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
        assert!(a.is_subset(&a));
    }

    #[test]
    fn clear_keeps_canonical_form() {
        let mut a: BitSet = [1usize, 500].into_iter().collect();
        a.clear();
        assert_eq!(a, BitSet::new());
        assert!(a.is_empty());
    }

    #[test]
    fn union_with_grows_and_merges() {
        let mut a: BitSet = [1usize, 64].into_iter().collect();
        let b: BitSet = [2usize, 300].into_iter().collect();
        a.union_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 64, 300]);
        let mut c = BitSet::new();
        c.union_with(&a);
        assert_eq!(c, a);
    }

    #[test]
    fn trimmed_words_are_canonical() {
        assert_eq!(BitSet::new().trimmed_words(), (0, &[][..]));
        let mut a = BitSet::with_capacity(512);
        a.insert(130);
        a.insert(200);
        let b: BitSet = [200usize, 130].into_iter().collect();
        assert_eq!(a.trimmed_words(), b.trimmed_words());
        assert_eq!(a.trimmed_words(), (2, &[1u64 << 2, 1u64 << 8][..]));
    }

    #[test]
    fn last_is_the_largest_element() {
        assert_eq!(BitSet::new().last(), None);
        assert_eq!(BitSet::with_capacity(300).last(), None);
        let s: BitSet = [3usize, 64, 200].into_iter().collect();
        assert_eq!(s.last(), Some(200));
        assert_eq!(s.last(), s.iter().last());
    }

    #[test]
    fn with_does_not_mutate() {
        let a: BitSet = [1usize].into_iter().collect();
        let b = a.with(2);
        assert!(!a.contains(2));
        assert!(b.contains(2));
    }
}
