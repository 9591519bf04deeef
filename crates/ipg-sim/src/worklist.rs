//! Sparse active-set worklists for the cycle engines.
//!
//! At low injection rates almost every per-cycle iteration of a full
//! `for li in 0..links` / `for node in 0..n` loop visits something with
//! no work. The engines instead maintain a [`Worklist`] per event
//! source: a fixed-capacity bitset plus a membership count, iterated in
//! **ascending index order** — the full loop's order restricted to the
//! entries with work, so no observable effect (outbox contents, RNG
//! draws, stat updates) is reordered.
//!
//! The backing [`FixedBitSet`] is vendored here (dependency-free, ~60
//! lines) rather than pulled from crates.io; the build is hermetic.
//! [`FrozenBits`] wraps the same words for flags set once at assembly
//! and only read afterwards (the packet engine's off-module links).
//!
//! # Invariant discipline
//!
//! Engine code must mutate membership only through [`Worklist::insert`]
//! / [`Worklist::remove`] (wrapped by the engines' own enqueue/dequeue
//! helpers). `ipg-analyze` rule DET007 rejects the raw bitset mutators
//! (`FixedBitSet`, `set_bit`, `clear_bit`) inside `engine.rs` and
//! `wormhole.rs`, so a cycle loop cannot flip bits without going through
//! the counted API — the activation invariant (DESIGN.md §13) depends on
//! the bit and the underlying queue state changing together.

/// A fixed-capacity bitset over `u64` words. Internal to this module:
/// simulation code holds a [`Worklist`], never the bitset.
#[derive(Clone, Debug, Default)]
pub struct FixedBitSet {
    words: Vec<u64>,
    bits: u32,
}

impl FixedBitSet {
    /// An all-zero set over `bits` indices.
    pub fn with_capacity(bits: usize) -> FixedBitSet {
        FixedBitSet {
            words: vec![0u64; bits.div_ceil(64)],
            bits: bits as u32,
        }
    }

    /// Set bit `i`; returns `true` if it was previously clear.
    #[inline]
    pub fn set_bit(&mut self, i: u32) -> bool {
        debug_assert!(i < self.bits);
        let w = &mut self.words[(i / 64) as usize];
        let mask = 1u64 << (i % 64);
        let was_clear = *w & mask == 0;
        *w |= mask;
        was_clear
    }

    /// Clear bit `i`; returns `true` if it was previously set.
    #[inline]
    pub fn clear_bit(&mut self, i: u32) -> bool {
        debug_assert!(i < self.bits);
        let w = &mut self.words[(i / 64) as usize];
        let mask = 1u64 << (i % 64);
        let was_set = *w & mask != 0;
        *w &= !mask;
        was_set
    }

    /// Is bit `i` set?
    #[inline]
    pub fn test(&self, i: u32) -> bool {
        debug_assert!(i < self.bits);
        self.words[(i / 64) as usize] & (1u64 << (i % 64)) != 0
    }

    /// Clear every bit (keeps the allocation).
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Index of the first set bit at position ≥ `from`, if any.
    /// Word-skipping: empty regions cost one load per 64 indices.
    #[inline]
    pub fn next_set_bit(&self, from: u32) -> Option<u32> {
        if from >= self.bits {
            return None;
        }
        let mut wi = (from / 64) as usize;
        // mask off bits below `from` in the first word
        let mut word = self.words[wi] & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                return Some(wi as u32 * 64 + word.trailing_zeros());
            }
            wi += 1;
            if wi >= self.words.len() {
                return None;
            }
            word = self.words[wi];
        }
    }
}

/// A counted set of active indices (links, nodes) with deterministic
/// ascending iteration. See the module docs for the discipline.
#[derive(Clone, Debug, Default)]
pub struct Worklist {
    set: FixedBitSet,
    len: u32,
}

impl Worklist {
    /// An empty worklist over indices `0..capacity`.
    pub fn new(capacity: usize) -> Worklist {
        Worklist {
            set: FixedBitSet::with_capacity(capacity),
            len: 0,
        }
    }

    /// Number of active indices.
    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Is the worklist empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    // The counter updates below use an explicit branch rather than the
    // branchless `self.len += u32::from(fresh)`: at opt-level >= 2 the
    // current toolchain drops the branchless increment when `set_bit` is
    // inlined across the `&mut self.words[..]` borrow (the bit write and
    // the returned bool stay correct, only the `len` update vanishes).
    // The branch form compiles correctly; do not "simplify" it back.

    /// Mark `i` active. Idempotent; returns `true` on a 0→1 transition.
    #[inline]
    pub fn insert(&mut self, i: u32) -> bool {
        let fresh = self.set.set_bit(i);
        if fresh {
            self.len += 1;
        }
        fresh
    }

    /// Mark `i` inactive. Idempotent; returns `true` on a 1→0 transition.
    #[inline]
    pub fn remove(&mut self, i: u32) -> bool {
        let removed = self.set.clear_bit(i);
        if removed {
            self.len -= 1;
        }
        removed
    }

    /// Is `i` active?
    #[inline]
    pub fn contains(&self, i: u32) -> bool {
        self.set.test(i)
    }

    /// Deactivate everything (keeps the allocation).
    pub fn clear(&mut self) {
        self.set.clear_all();
        self.len = 0;
    }

    /// First active index ≥ `from`, if any. The primitive behind both
    /// iteration styles; exposed so a caller can run a **live cursor
    /// sweep** — ascending traversal that *does* observe insertions made
    /// at indices ahead of the cursor while it runs (the wormhole step
    /// loop needs exactly this to keep CSR link order, where a flit
    /// forwarded to a higher-numbered node can move again in the same
    /// cycle).
    #[inline]
    pub fn next_active(&self, from: u32) -> Option<u32> {
        self.set.next_set_bit(from)
    }

    /// Append the active indices in ascending order to `out` (a
    /// **snapshot**: mutations after the call are not reflected).
    pub fn collect_into(&self, out: &mut Vec<u32>) {
        out.reserve(self.len as usize);
        let mut from = 0u32;
        while let Some(i) = self.set.next_set_bit(from) {
            out.push(i);
            from = i + 1;
        }
    }

    /// Visit the active indices in ascending order (snapshot semantics
    /// are the caller's concern: do not mutate the worklist inside `f`).
    pub fn for_each(&self, mut f: impl FnMut(u32)) {
        let mut from = 0u32;
        while let Some(i) = self.set.next_set_bit(from) {
            f(i);
            from = i + 1;
        }
    }

    /// Heap bytes held (the bitset's words, by capacity).
    pub fn heap_bytes(&self) -> usize {
        self.set.words.capacity() * 8
    }
}

/// One bit per index, fixed when it is built: per-link class flags the
/// cycle loops read and never write. It has no mutator, so it needs
/// no counted API and gives DET007 nothing to police.
#[derive(Clone, Debug, Default)]
pub struct FrozenBits {
    set: FixedBitSet,
}

impl FrozenBits {
    /// Number of indices.
    pub fn len(&self) -> usize {
        self.set.bits as usize
    }

    /// Does it cover no index?
    pub fn is_empty(&self) -> bool {
        self.set.bits == 0
    }

    /// Bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.set.test(i as u32)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.set.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Heap bytes held (the words, by capacity).
    pub fn heap_bytes(&self) -> usize {
        self.set.words.capacity() * 8
    }
}

impl FromIterator<bool> for FrozenBits {
    fn from_iter<I: IntoIterator<Item = bool>>(bits: I) -> FrozenBits {
        let mut set = FixedBitSet::default();
        for b in bits {
            if set.bits % 64 == 0 {
                set.words.push(0);
            }
            if b {
                set.words[(set.bits / 64) as usize] |= 1u64 << (set.bits % 64);
            }
            set.bits += 1;
        }
        set.words.shrink_to_fit();
        FrozenBits { set }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_count_and_order() {
        let mut w = Worklist::new(200);
        assert!(w.is_empty());
        for &i in &[7u32, 64, 65, 199, 0, 63] {
            assert!(w.insert(i), "first insert of {i} is a 0->1 transition");
        }
        assert!(!w.insert(7), "re-insert is idempotent");
        assert_eq!(w.len(), 6);
        let mut seen = Vec::new();
        w.collect_into(&mut seen);
        assert_eq!(seen, vec![0, 7, 63, 64, 65, 199], "ascending iteration");
        assert!(w.remove(64));
        assert!(!w.remove(64), "re-remove is idempotent");
        assert_eq!(w.len(), 5);
        assert!(w.contains(65) && !w.contains(64));
    }

    #[test]
    fn cursor_sweep_sees_insertions_ahead_but_not_behind() {
        let mut w = Worklist::new(128);
        w.insert(10);
        let mut visited = Vec::new();
        let mut cursor = 0u32;
        while let Some(i) = w.next_active(cursor) {
            visited.push(i);
            if i == 10 {
                w.insert(100); // ahead of the cursor: must be visited
                w.insert(3); // behind: must not be revisited this sweep
            }
            cursor = i + 1;
        }
        assert_eq!(visited, vec![10, 100]);
        assert!(w.contains(3), "the behind-cursor insert is kept for later");
    }

    #[test]
    fn clear_resets_without_shrinking() {
        let mut w = Worklist::new(64);
        for i in 0..64 {
            w.insert(i);
        }
        assert_eq!(w.len(), 64);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.next_active(0), None);
        assert!(w.insert(63));
    }

    #[test]
    fn frozen_bits_keep_what_they_were_built_from() {
        let want: Vec<bool> = (0..130).map(|i| i % 3 == 0 || i == 64).collect();
        let bits: FrozenBits = want.iter().copied().collect();
        assert_eq!(bits.len(), 130);
        assert_eq!(bits.count_ones(), want.iter().filter(|&&b| b).count());
        for (i, &b) in want.iter().enumerate() {
            assert_eq!(bits.get(i), b, "bit {i}");
        }
        assert_eq!(bits.heap_bytes(), 3 * 8, "130 bits fill three words");
        assert!(std::iter::empty::<bool>()
            .collect::<FrozenBits>()
            .is_empty());
    }

    #[test]
    fn word_boundaries_are_exact() {
        let mut w = Worklist::new(129);
        for &i in &[63u32, 64, 127, 128] {
            w.insert(i);
        }
        assert_eq!(w.next_active(0), Some(63));
        assert_eq!(w.next_active(64), Some(64));
        assert_eq!(w.next_active(65), Some(127));
        assert_eq!(w.next_active(128), Some(128));
        assert_eq!(w.next_active(129), None);
    }
}
