//! Minimal fixed-size bitset.
//!
//! One live-edge world is one bit per edge: the world sampler sets a
//! world's live edges in a [`BitVec`] before packing them into a lane block
//! (`m / 8` bytes per sampling task), and sketch extraction reads a world
//! straight from one.

/// A fixed-length bit vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// All-zero bitset of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when holding zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i >> 6] >> (i & 63)) & 1 != 0
    }

    /// Set bit `i` to `value`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i & 63);
        if value {
            self.words[i >> 6] |= mask;
        } else {
            self.words[i >> 6] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of set bits in `[lo, hi)` — one masked popcount per word.
    /// Reverse-reachability sampling uses this to count the live
    /// earlier-ranked siblings of an edge (its coupon demand) without
    /// visiting individual bits.
    pub fn count_ones_in(&self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi && hi <= self.len);
        if lo >= hi {
            return 0;
        }
        let first_w = lo >> 6;
        let last_w = (hi - 1) >> 6;
        let mut count = 0usize;
        for w in first_w..=last_w {
            let mut word = self.words[w];
            if w == first_w {
                word &= !0u64 << (lo & 63);
            }
            if w == last_w {
                let top = hi & 63;
                if top != 0 {
                    word &= (1u64 << top) - 1;
                }
            }
            count += word.count_ones() as usize;
        }
        count
    }

    /// Heap bytes held by the bit words.
    pub fn resident_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// Clear every bit (one `memset` over the words).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Call `f` with every set bit position in ascending order, clearing
    /// the bitset as it drains — one zero-word-skipping pass. How the world
    /// sampler turns its bucket-ordered scratch bitmap into edge-ordered
    /// lane masks without a comparison sort.
    pub fn drain_ascending_into(&mut self, mut f: impl FnMut(usize)) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = *word;
            if bits == 0 {
                continue;
            }
            *word = 0;
            let base = w << 6;
            while bits != 0 {
                f(base + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

/// A word-level index set with dirty-word tracking — the frontier bitset of
/// the cascade kernels. Insertions mark the containing word dirty;
/// [`drain_ascending_into`](Self::drain_ascending_into) sorts the dirty
/// words and extracts every member in ascending order while clearing only
/// the touched words, so a sparse frontier over a large node range costs
/// `O(dirty)` to reset instead of `O(n/64)`. The bit-parallel lane kernel
/// ([`crate::lane`]) collects its union-over-lanes frontier here, and the
/// scalar kernel ([`crate::reach`]) its next BFS round.
#[derive(Clone, Debug, Default)]
pub struct WordSet {
    words: Vec<u64>,
    dirty: Vec<u32>,
}

impl WordSet {
    /// Empty set over an empty domain.
    pub fn new() -> Self {
        WordSet::default()
    }

    /// Grow the domain to cover indices `0..n` (never shrinks; grown words
    /// are zero).
    pub fn ensure(&mut self, n: usize) {
        let words = n.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
    }

    /// Drop the backing allocation (the shrink path of long-lived worker
    /// scratches).
    pub fn reset(&mut self) {
        self.words = Vec::new();
        self.dirty = Vec::new();
    }

    /// Insert index `i`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        let w = i >> 6;
        if self.words[w] == 0 {
            self.dirty.push(w as u32);
        }
        self.words[w] |= 1u64 << (i & 63);
    }

    /// True when no index is present.
    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
    }

    /// Extract every member in ascending order, calling `f(i)` per index
    /// and clearing the set as it drains.
    pub fn drain_ascending_into(&mut self, mut f: impl FnMut(usize)) {
        self.dirty.sort_unstable();
        for &w in &self.dirty {
            let mut bits = self.words[w as usize];
            self.words[w as usize] = 0;
            let base = (w as usize) << 6;
            while bits != 0 {
                f(base | bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        self.dirty.clear();
    }

    /// Clear every member (touching only dirty words — defensive reset for
    /// scratch reuse after a panicking caller).
    pub fn clear(&mut self) {
        for &w in &self.dirty {
            self.words[w as usize] = 0;
        }
        self.dirty.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut b = BitVec::zeros(130);
        assert_eq!(b.len(), 130);
        for i in [0, 1, 63, 64, 65, 129] {
            assert!(!b.get(i));
            b.set(i, true);
            assert!(b.get(i));
        }
        assert_eq!(b.count_ones(), 6);
        b.set(64, false);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 5);
    }

    #[test]
    fn zero_length() {
        let b = BitVec::zeros(0);
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn word_boundaries_do_not_leak() {
        let mut b = BitVec::zeros(128);
        b.set(63, true);
        assert!(!b.get(62));
        assert!(!b.get(64));
    }

    #[test]
    fn count_ones_in_matches_naive_scan() {
        let mut b = BitVec::zeros(200);
        for i in [0, 3, 63, 64, 65, 127, 128, 199] {
            b.set(i, true);
        }
        for (lo, hi) in [
            (0, 200),
            (0, 0),
            (64, 64),
            (1, 64),
            (63, 65),
            (100, 199),
            (128, 129),
        ] {
            let naive = (lo..hi).filter(|&i| b.get(i)).count();
            assert_eq!(b.count_ones_in(lo, hi), naive, "range [{lo}, {hi})");
        }
    }

    #[test]
    fn drain_extracts_ascending_and_clears() {
        let mut b = BitVec::zeros(300);
        let set = [0usize, 63, 64, 200, 299];
        for &i in &set {
            b.set(i, true);
        }
        let mut out = Vec::new();
        b.drain_ascending_into(|i| out.push(i));
        assert_eq!(out, set);
        assert_eq!(b.count_ones(), 0, "drain must clear the bitset");
    }

    #[test]
    fn word_set_drains_ascending_and_clears() {
        let mut s = WordSet::new();
        s.ensure(300);
        assert!(s.is_empty());
        for i in [299, 0, 64, 63, 128] {
            s.insert(i);
        }
        assert!(!s.is_empty());
        let mut got = Vec::new();
        s.drain_ascending_into(|i| got.push(i));
        assert_eq!(got, vec![0, 63, 64, 128, 299]);
        assert!(s.is_empty());
        // Draining again yields nothing; reuse after clear works.
        s.drain_ascending_into(|_| panic!("set must be empty"));
        s.insert(5);
        s.clear();
        assert!(s.is_empty());
        s.insert(7);
        let mut got = Vec::new();
        s.drain_ascending_into(|i| got.push(i));
        assert_eq!(got, vec![7]);
    }
}
