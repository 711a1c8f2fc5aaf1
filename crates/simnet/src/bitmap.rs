//! Reception bitmaps — the data structure at the heart of the paper's
//! multi-phase UDP broadcast (Fig. 6).
//!
//! Each receiver of a checkpoint broadcast returns a bitmap with one bit
//! per block (1 = received). The sender ANDs all bitmaps to find blocks
//! that *every* receiver has, and rebroadcasts the complement. The wire
//! size of a bitmap (`ceil(n/8)` bytes) is part of the protocol's
//! cost/gain accounting, so it is exposed here.
//!
//! One is made, cloned and dropped per receiver per batch. On the fleet
//! profiles a checkpoint of operator state is 16–64 blocks of 1 KiB and
//! a preserved 128 KiB frame is 128 blocks, so up to [`INLINE_BITS`]
//! bits live in the struct itself and only longer bitmaps touch the
//! heap.

use std::fmt;

/// Longest bitmap stored without a heap allocation.
const INLINE_BITS: usize = 128;

/// `len.div_ceil(64)` words; bits past `len` (and inline words past
/// the last one in use) are zero, which is what lets `Eq` be derived.
#[derive(Clone, PartialEq, Eq)]
enum Words {
    Inline([u64; INLINE_BITS / 64]),
    Heap(Box<[u64]>),
}

/// A fixed-length bitset.
#[derive(Clone, PartialEq, Eq)]
pub struct Bitmap {
    len: usize,
    words: Words,
}

impl Bitmap {
    /// All-zero bitmap of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self::filled(len, 0)
    }

    /// All-one bitmap of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut b = Self::filled(len, u64::MAX);
        let tail = len % 64;
        if tail != 0 {
            if let Some(last) = b.words_mut().last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        b
    }

    /// `len` bits with every word in use set to `word`.
    fn filled(len: usize, word: u64) -> Self {
        let n = len.div_ceil(64);
        let words = if len <= INLINE_BITS {
            let mut inline = [0; INLINE_BITS / 64];
            inline[..n].fill(word);
            Words::Inline(inline)
        } else {
            Words::Heap(vec![word; n].into())
        };
        Bitmap { len, words }
    }

    #[inline]
    fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(w) => &w[..self.len.div_ceil(64)],
            Words::Heap(w) => w,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(w) => &mut w[..self.len.div_ceil(64)],
            Words::Heap(w) => w,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap has no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Wire size in bytes when a receiver returns this bitmap.
    pub fn wire_bytes(&self) -> u64 {
        (self.len as u64).div_ceil(8)
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words()[i / 64] >> (i % 64) & 1 == 1
    }

    /// Set bit `i` to `v`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        let w = &mut self.words_mut()[i / 64];
        if v {
            *w |= 1 << (i % 64);
        } else {
            *w &= !(1 << (i % 64));
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of clear bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// True if every bit is set.
    pub fn all_ones(&self) -> bool {
        self.count_ones() == self.len
    }

    /// In-place AND with another bitmap of the same length.
    pub fn and_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= *b;
        }
    }

    /// In-place OR with another bitmap of the same length.
    pub fn or_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a |= *b;
        }
    }

    /// Indices of clear bits (the blocks to rebroadcast), ascending.
    pub fn zero_indices(&self) -> Vec<usize> {
        let zeros = self.count_zeros();
        let mut out = Vec::with_capacity(zeros + 63);
        for (wi, &w) in self.words().iter().enumerate() {
            push_set_bits(&mut out, wi, !w);
        }
        // The last word's complement also has the bits past `len`.
        out.truncate(zeros);
        out
    }

    /// Indices of set bits, ascending.
    pub fn one_indices(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count_ones());
        for (wi, &w) in self.words().iter().enumerate() {
            push_set_bits(&mut out, wi, w);
        }
        out
    }

    /// OR `src` into `self` starting at bit `offset`:
    /// `self[offset + i] |= src[i]`. Panics unless
    /// `offset + src.len() <= self.len()`.
    pub fn or_shifted(&mut self, src: &Bitmap, offset: usize) {
        assert!(
            offset + src.len <= self.len,
            "shifted OR of {} bits at {offset} exceeds {} bits",
            src.len,
            self.len
        );
        let (w0, sh) = (offset / 64, offset % 64);
        let dst = &mut self.words_mut()[w0..];
        for (i, &w) in src.words().iter().enumerate() {
            dst[i] |= w << sh;
            // The spill is non-zero only for bits that exist in `src`,
            // so the word it lands in exists in `self`.
            if sh != 0 && w >> (64 - sh) != 0 {
                dst[i + 1] |= w >> (64 - sh);
            }
        }
    }

    /// Scatter: set `self[targets[i]]` for every set bit `i` of `src`.
    /// Panics unless `targets.len() == src.len()` and every scattered
    /// target is in range.
    pub fn or_scattered(&mut self, src: &Bitmap, targets: &[u32]) {
        assert_eq!(src.len, targets.len(), "scatter length mismatch");
        let len = self.len;
        let dst = self.words_mut();
        for (wi, &w) in src.words().iter().enumerate() {
            let mut rest = w;
            while rest != 0 {
                let t = targets[wi * 64 + rest.trailing_zeros() as usize] as usize;
                assert!(t < len, "bit {t} out of range (len {len})");
                dst[t / 64] |= 1 << (t % 64);
                rest &= rest - 1;
            }
        }
    }

    /// AND of an iterator of bitmaps (all the same length).
    /// Returns `None` if the iterator is empty.
    pub fn and_all<'a>(mut maps: impl Iterator<Item = &'a Bitmap>) -> Option<Bitmap> {
        let mut acc = maps.next()?.clone();
        for m in maps {
            acc.and_assign(m);
        }
        Some(acc)
    }
}

/// Append the positions of `word`'s set bits, offset by `wi * 64`.
fn push_set_bits(out: &mut Vec<usize>, wi: usize, word: u64) {
    let mut rest = word;
    while rest != 0 {
        out.push(wi * 64 + rest.trailing_zeros() as usize);
        rest &= rest - 1;
    }
}

impl fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Bitmap[{}: {}/{} set",
            self.len,
            self.count_ones(),
            self.len
        )?;
        if self.len <= 64 {
            write!(f, " ")?;
            for i in 0..self.len {
                write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_ones() {
        let z = Bitmap::zeros(130);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(z.count_zeros(), 130);
        let o = Bitmap::ones(130);
        assert_eq!(o.count_ones(), 130);
        assert!(o.all_ones());
        assert!(o.get(129));
    }

    #[test]
    fn tail_masking_exact_word_boundary() {
        let o = Bitmap::ones(128);
        assert_eq!(o.count_ones(), 128);
        let o = Bitmap::ones(64);
        assert_eq!(o.count_ones(), 64);
        let o = Bitmap::ones(1);
        assert_eq!(o.count_ones(), 1);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut b = Bitmap::zeros(100);
        b.set(0, true);
        b.set(63, true);
        b.set(64, true);
        b.set(99, true);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(99));
        assert!(!b.get(1) && !b.get(65));
        assert_eq!(b.count_ones(), 4);
        b.set(63, false);
        assert!(!b.get(63));
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    fn and_or_semantics() {
        let mut evens = Bitmap::zeros(10);
        let mut odds = Bitmap::zeros(10);
        for i in 0..10 {
            if i % 2 == 0 {
                evens.set(i, true);
            } else {
                odds.set(i, true);
            }
        }
        let mut anded = evens.clone();
        anded.and_assign(&odds);
        assert_eq!(anded.count_ones(), 0);
        let mut ored = evens.clone();
        ored.or_assign(&odds);
        assert!(ored.all_ones());
    }

    #[test]
    fn fig6_style_and_all() {
        // Paper's Fig 6 time instant 2: A has first 3, B has evens,
        // C has odds → AND = empty.
        let n = 16;
        let mut a = Bitmap::zeros(n);
        (0..3).for_each(|i| a.set(i, true));
        let mut b = Bitmap::zeros(n);
        (0..n).filter(|i| i % 2 == 1).for_each(|i| b.set(i, true)); // "even messages" M2,M4.. are odd indices
        let mut c = Bitmap::zeros(n);
        (0..n).filter(|i| i % 2 == 0).for_each(|i| c.set(i, true));
        let anded = Bitmap::and_all([&a, &b, &c].into_iter()).unwrap();
        assert_eq!(anded.count_ones(), 0);
        assert_eq!(anded.zero_indices().len(), n);
    }

    #[test]
    fn wire_bytes_matches_paper() {
        // 8192 blocks → 1 KB bitmap, as in Fig 6.
        assert_eq!(Bitmap::zeros(8192).wire_bytes(), 1024);
        assert_eq!(Bitmap::zeros(1).wire_bytes(), 1);
        assert_eq!(Bitmap::zeros(9).wire_bytes(), 2);
    }

    #[test]
    fn and_all_empty_is_none() {
        assert!(Bitmap::and_all(std::iter::empty()).is_none());
    }

    #[test]
    fn union_accumulates_receptions_across_phases() {
        // A receiver's cumulative bitmap is the union of per-phase
        // receptions: losses only ever shrink.
        let n = 12;
        let mut cum = Bitmap::zeros(n);
        let mut phase1 = Bitmap::zeros(n);
        (0..n)
            .filter(|i| i % 2 == 0)
            .for_each(|i| phase1.set(i, true));
        cum.or_assign(&phase1);
        assert_eq!(cum.zero_indices(), vec![1, 3, 5, 7, 9, 11]);

        // Phase 2 re-delivers some of the losses (and re-receives a few
        // blocks already held — idempotent).
        let mut phase2 = Bitmap::zeros(n);
        for i in [0, 1, 5, 9] {
            phase2.set(i, true);
        }
        cum.or_assign(&phase2);
        assert_eq!(cum.zero_indices(), vec![3, 7, 11], "residue shrinks");

        // Phase 3 delivers the rest.
        let mut phase3 = Bitmap::zeros(n);
        for i in [3, 7, 11] {
            phase3.set(i, true);
        }
        cum.or_assign(&phase3);
        assert!(cum.all_ones(), "no residue left");
    }

    #[test]
    fn and_across_receivers_yields_rebroadcast_set() {
        // The sender ANDs all receivers' bitmaps; the AND's zero
        // indices are the union of everyone's losses — exactly the next
        // phase's rebroadcast set (§III-C).
        let n = 10;
        let mut a = Bitmap::ones(n);
        a.set(2, false); // A lost block 2
        let mut b = Bitmap::ones(n);
        b.set(7, false); // B lost block 7
        let c = Bitmap::ones(n); // C lost nothing

        let anded = Bitmap::and_all([&a, &b, &c].into_iter()).unwrap();
        assert_eq!(anded.zero_indices(), vec![2, 7]);
        assert_eq!(anded.count_ones(), n - 2);

        // Per-receiver residue (what the final reliable pass must carry
        // to each) stays individual: A needs 2, B needs 7, C nothing.
        assert_eq!(a.zero_indices(), vec![2]);
        assert_eq!(b.zero_indices(), vec![7]);
        assert!(c.zero_indices().is_empty());
    }

    #[test]
    fn and_assign_is_intersection_or_assign_is_union() {
        let n = 9;
        let mut x = Bitmap::zeros(n);
        let mut y = Bitmap::zeros(n);
        for i in 0..n {
            x.set(i, i < 6); // 0..6
            y.set(i, i >= 3); // 3..9
        }
        let mut and = x.clone();
        and.and_assign(&y);
        assert_eq!(and.one_indices(), vec![3, 4, 5]);
        let mut or = x.clone();
        or.or_assign(&y);
        assert!(or.all_ones());
        // De Morgan sanity: zeros(AND) = zeros(x) ∪ zeros(y).
        let mut expect: Vec<usize> = x.zero_indices();
        expect.extend(y.zero_indices());
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(and.zero_indices(), expect);
    }

    proptest! {
        #[test]
        fn prop_set_then_get(len in 1usize..300, bits in prop::collection::vec(any::<bool>(), 1..300)) {
            let len = len.min(bits.len());
            let mut b = Bitmap::zeros(len);
            for (i, &v) in bits.iter().take(len).enumerate() {
                b.set(i, v);
            }
            for (i, &v) in bits.iter().take(len).enumerate() {
                prop_assert_eq!(b.get(i), v);
            }
            let expect = bits.iter().take(len).filter(|&&v| v).count();
            prop_assert_eq!(b.count_ones(), expect);
        }

        #[test]
        fn prop_and_is_intersection(len in 1usize..200, seed_a in any::<u64>(), seed_b in any::<u64>()) {
            let mk = |seed: u64| {
                let mut b = Bitmap::zeros(len);
                let mut s = seed;
                for i in 0..len {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    b.set(i, s >> 63 == 1);
                }
                b
            };
            let a = mk(seed_a);
            let bb = mk(seed_b);
            let mut anded = a.clone();
            anded.and_assign(&bb);
            for i in 0..len {
                prop_assert_eq!(anded.get(i), a.get(i) && bb.get(i));
            }
            // ones + zeros partition the index set
            prop_assert_eq!(anded.count_ones() + anded.count_zeros(), len);
            let one_ix = anded.one_indices();
            let zero_ix = anded.zero_indices();
            prop_assert_eq!(one_ix.len() + zero_ix.len(), len);
        }

        /// The word-at-a-time index lists equal a bit-by-bit scan, at
        /// every length around the word boundaries.
        #[test]
        fn prop_indices_match_bit_by_bit(bits in prop::collection::vec(any::<bool>(), 0..200)) {
            let b = from_bits(&bits);
            let ones: Vec<usize> = (0..bits.len()).filter(|&i| bits[i]).collect();
            let zeros: Vec<usize> = (0..bits.len()).filter(|&i| !bits[i]).collect();
            prop_assert_eq!(b.one_indices(), ones);
            prop_assert_eq!(b.zero_indices(), zeros);
        }

        /// `or_shifted` equals setting `dst[offset + i]` for every set
        /// `src[i]`, at offsets that are and are not multiples of 64.
        #[test]
        fn prop_or_shifted_matches_bit_by_bit(
            fill in prop::collection::vec(any::<bool>(), 1..67),
            src_bits in prop::collection::vec(any::<bool>(), 0..200),
            offset in 0usize..140,
            slack in 0usize..70,
        ) {
            let dst_len = offset + src_bits.len() + slack;
            let dst_bits: Vec<bool> = (0..dst_len).map(|i| fill[i % fill.len()]).collect();
            let (mut fast, src) = (from_bits(&dst_bits), from_bits(&src_bits));
            let mut slow = fast.clone();
            for (i, &v) in src_bits.iter().enumerate() {
                if v {
                    slow.set(offset + i, true);
                }
            }
            fast.or_shifted(&src, offset);
            prop_assert_eq!(fast, slow);
        }

        /// `or_scattered` equals the per-bit loop for unsorted targets
        /// with repeats.
        #[test]
        fn prop_or_scattered_matches_bit_by_bit(
            len in 1usize..200,
            pairs in prop::collection::vec((any::<bool>(), 0u32..200), 0..150),
        ) {
            let targets: Vec<u32> = pairs.iter().map(|&(_, t)| t % len as u32).collect();
            let src_bits: Vec<bool> = pairs.iter().map(|&(v, _)| v).collect();
            let mut fast = Bitmap::zeros(len);
            let mut slow = Bitmap::zeros(len);
            for (i, &t) in targets.iter().enumerate() {
                if src_bits[i] {
                    slow.set(t as usize, true);
                }
            }
            fast.or_scattered(&from_bits(&src_bits), &targets);
            prop_assert_eq!(fast, slow);
        }
    }

    /// Lengths on both sides of the inline/heap boundary and of every
    /// word boundary below it.
    const BOUNDARY_LENS: [usize; 9] = [0, 1, 63, 64, 65, 127, 128, 129, 1000];

    proptest! {
        /// Every operation agrees with a `Vec<bool>` model whether the
        /// words are inline or on the heap.
        #[test]
        fn prop_inline_and_heap_storage_match_a_bool_vec(
            which in 0usize..BOUNDARY_LENS.len(),
            seed_a in any::<u64>(),
            seed_b in any::<u64>(),
            offset in 0usize..70,
        ) {
            let len = BOUNDARY_LENS[which];
            let bools = |seed: u64, n: usize| -> Vec<bool> {
                let mut s = seed;
                (0..n)
                    .map(|_| {
                        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        s >> 63 == 1
                    })
                    .collect()
            };
            let (ra, rb) = (bools(seed_a, len), bools(seed_b, len));
            let (a, b) = (from_bits(&ra), from_bits(&rb));
            let same = |m: &Bitmap, model: &[bool]| {
                m.len() == model.len() && (0..model.len()).all(|i| m.get(i) == model[i])
            };

            prop_assert!(same(&Bitmap::zeros(len), &vec![false; len]));
            prop_assert!(same(&Bitmap::ones(len), &vec![true; len]));
            prop_assert_eq!(Bitmap::ones(len).count_ones(), len);
            prop_assert!(same(&a, &ra));
            prop_assert_eq!(a.count_ones(), ra.iter().filter(|&&v| v).count());
            prop_assert_eq!(a.one_indices(), (0..len).filter(|&i| ra[i]).collect::<Vec<_>>());
            prop_assert_eq!(a.zero_indices(), (0..len).filter(|&i| !ra[i]).collect::<Vec<_>>());

            // Clone and Eq: equal exactly when the models are, and a
            // clone is independent of its source.
            let mut c = a.clone();
            prop_assert_eq!(&c, &a);
            prop_assert_eq!(a == b, ra == rb);
            if len > 0 {
                c.set(len - 1, !ra[len - 1]);
                prop_assert_ne!(&c, &a);
                prop_assert_eq!(a.get(len - 1), ra[len - 1]);
            }

            let (mut and, mut or) = (a.clone(), a.clone());
            and.and_assign(&b);
            or.or_assign(&b);
            let r_and: Vec<bool> = (0..len).map(|i| ra[i] && rb[i]).collect();
            let r_or: Vec<bool> = (0..len).map(|i| ra[i] || rb[i]).collect();
            prop_assert!(same(&and, &r_and));
            prop_assert!(same(&or, &r_or));
            prop_assert_eq!(Bitmap::and_all([&a, &b, &a].into_iter()), Some(and));

            // Shifted OR into a destination `offset` bits longer, so
            // source and destination can sit on different sides of the
            // boundary; scattered OR through a reversing target list.
            let wide = bools(seed_a ^ seed_b, len + offset);
            let mut shifted = from_bits(&wide);
            shifted.or_shifted(&b, offset);
            let r_shifted: Vec<bool> = (0..len + offset)
                .map(|i| wide[i] || (i >= offset && rb[i - offset]))
                .collect();
            prop_assert!(same(&shifted, &r_shifted));
            let targets: Vec<u32> = (0..len as u32).rev().collect();
            let mut scattered = a.clone();
            scattered.or_scattered(&b, &targets);
            let r_scattered: Vec<bool> = (0..len).map(|i| ra[i] || rb[len - 1 - i]).collect();
            prop_assert!(same(&scattered, &r_scattered));
        }
    }

    /// An event carrying a bitmap should fit a small pool slot: the
    /// inline storage must not grow the struct.
    #[test]
    fn bitmap_is_no_bigger_than_a_vec_and_a_length() {
        assert!(std::mem::size_of::<Bitmap>() <= 32);
    }

    fn from_bits(bits: &[bool]) -> Bitmap {
        let mut b = Bitmap::zeros(bits.len());
        for (i, &v) in bits.iter().enumerate() {
            b.set(i, v);
        }
        b
    }

    #[test]
    fn shifted_or_spills_across_a_word_boundary() {
        let mut dst = Bitmap::zeros(130);
        dst.or_shifted(&Bitmap::ones(70), 60);
        assert_eq!(dst.one_indices(), (60..130).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn shifted_or_out_of_range_panics() {
        Bitmap::zeros(10).or_shifted(&Bitmap::ones(4), 7);
    }
}
