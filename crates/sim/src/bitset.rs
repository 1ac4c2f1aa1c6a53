//! Dense fixed-width bitset over `usize` indices — the one set type under
//! the oracle specializer's relevance state and the analysis plane's
//! dataflow solvers.

/// Fixed-width bitset.
///
/// Queries are total: [`BitSet::contains`] answers `false` for any index
/// at or beyond the width `n` the set was made with (a bit that was
/// never inserted is absent). Writes are not: [`BitSet::insert`] and
/// [`BitSet::remove`] take indices below `n` and panic past the last
/// storage word, since a write outside the domain is a caller bug.
/// Binary operations pair words positionally, so both operands should
/// share one width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// All-zero set over `n` bits.
    pub fn new(n: usize) -> BitSet {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Sets bit `i`; reports whether it was newly set.
    pub fn insert(&mut self, i: usize) -> bool {
        let w = &mut self.words[i / 64];
        let prev = *w;
        *w |= 1 << (i % 64);
        *w != prev
    }

    /// Clears bit `i`.
    pub fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Tests bit `i` (`false` beyond the set's width).
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| (w >> (i % 64)) & 1 == 1)
    }

    /// `self |= other`; reports whether `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            let next = *w | o;
            changed |= next != *w;
            *w = next;
        }
        changed
    }

    /// `self &= !other`.
    pub fn subtract(&mut self, other: &BitSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// Whether the two sets share a bit.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let b = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    wi * 64 + b
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::BitSet;

    #[test]
    fn insert_and_union_report_changes() {
        let mut a = BitSet::new(130);
        assert!(a.insert(3));
        assert!(!a.insert(3), "re-inserting is no change");
        let mut b = BitSet::new(130);
        b.insert(3);
        assert!(!a.union_with(&b), "subset union is no change");
        b.insert(129);
        assert!(a.union_with(&b));
        assert!(a.contains(129));
        a.remove(3);
        assert!(!a.contains(3));
        a.subtract(&b);
        assert_eq!(a.iter_ones().count(), 0);
    }

    #[test]
    fn intersects_needs_a_shared_bit() {
        let mut a = BitSet::new(200);
        let mut b = BitSet::new(200);
        a.insert(10);
        b.insert(150);
        assert!(!a.intersects(&b) && !b.intersects(&a));
        b.insert(10);
        assert!(a.intersects(&b) && b.intersects(&a));
        assert!(!BitSet::new(200).intersects(&b));
    }

    #[test]
    fn iter_ones_is_ascending_across_word_boundaries() {
        let mut s = BitSet::new(192);
        for i in [65, 0, 64, 191, 63, 128] {
            s.insert(i);
        }
        assert_eq!(
            s.iter_ones().collect::<Vec<_>>(),
            vec![0, 63, 64, 65, 128, 191]
        );
        assert_eq!(BitSet::new(70).iter_ones().count(), 0);
    }

    #[test]
    fn contains_is_false_beyond_the_width() {
        let mut s = BitSet::new(65);
        s.insert(64);
        assert!(s.contains(64));
        // Inside the last word but past `n`, and past the last word.
        assert!(!s.contains(100));
        assert!(!s.contains(128));
        assert!(!s.contains(usize::MAX));
        assert!(!BitSet::new(0).contains(0));
    }

    #[test]
    #[should_panic]
    fn insert_beyond_the_width_panics() {
        BitSet::new(64).insert(64);
    }
}
