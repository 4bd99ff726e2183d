//! Adaptive sparse/dense variable sets.
//!
//! The plan DAG's node variable sets are *sparse* at scale: a node built
//! from a phrase's interest set holds a few thousand advertisers out of a
//! universe of a million, so a dense n-bit [`BitSet`] per node costs
//! ~125 kB regardless of content — the documented reason plan-bearing
//! strategies used to top out near 100k advertisers. [`VarSet`] stores a
//! sorted, deduplicated `Vec<u32>` while the set is small and promotes to
//! dense 64-bit blocks once membership passes `capacity/32` (at which
//! point the dense form is no bigger and ops get cheaper), giving every
//! plan layer set algebra that costs O(|set|), not O(universe).
//!
//! [`VarSetRef`] is the borrowed, `Copy` view both representations (and
//! [`BitSet`]) lower to; every read-only operation is implemented once on
//! it, so owned sets, pooled CSR storage, and legacy dense sets all share
//! the same comparison/iteration code paths. Equality and hashing are
//! representation-independent (over the ascending element sequence), which
//! is what lets the planner's `by_set`/`by_union` interning maps key on
//! content rather than storage.

use crate::bitset::BitSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter::Peekable;

const BITS: usize = 64;

/// FNV-1a offset basis — the seed for [`fnv1a_u32`] chains.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one element into an FNV-1a hash chain (little-endian bytes).
/// Extending a set by a suffix extends its hash by the same suffix.
#[inline]
pub fn fnv1a_u32(mut h: u64, e: u32) -> u64 {
    for byte in e.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over a sorted element run, continuing from `h`.
#[inline]
pub fn fnv1a_extend<I: IntoIterator<Item = u32>>(h: u64, elems: I) -> u64 {
    elems.into_iter().fold(h, fnv1a_u32)
}

/// Sparse sets stay sorted-`u32` while `len <= max(16, capacity/32)`;
/// past that the dense block form is at most the same size (32 sparse
/// elements cost 128 B, as do 32 × 64-bit blocks covering 2048 elements)
/// and per-op costs drop to O(capacity/64). Public so pooled storage can
/// apply the same promotion rule.
#[inline]
pub fn sparse_limit(capacity: usize) -> usize {
    (capacity / 32).max(16)
}

/// A set of `usize` elements from a fixed universe `0..capacity`, stored
/// sparse (sorted `u32`s) or dense (64-bit blocks) depending on size.
///
/// The same-universe contract of [`BitSet`] applies: binary operations
/// require equal capacities (debug-asserted). Equality and hashing ignore
/// representation — a sparse set equals the dense set with the same
/// elements.
#[derive(Clone)]
pub struct VarSet {
    capacity: usize,
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    /// Strictly ascending, deduplicated element indices.
    Sparse(Vec<u32>),
    /// Dense blocks, least-significant bit = smallest element.
    Dense(Box<[u64]>),
}

/// A borrowed, `Copy` view of a set's storage — the common currency all
/// read-only set algebra is written against. Obtained from [`VarSet`],
/// [`BitSet`], or pooled CSR storage via [`AsVarSetRef`].
#[derive(Clone, Copy)]
pub enum VarSetRef<'a> {
    /// View of a strictly ascending, deduplicated element slice.
    Sparse {
        /// The sorted element indices.
        elems: &'a [u32],
        /// Universe size.
        capacity: usize,
    },
    /// View of dense 64-bit blocks.
    Dense {
        /// The bit blocks (`capacity.div_ceil(64)` of them).
        blocks: &'a [u64],
        /// Universe size.
        capacity: usize,
    },
}

/// Types that can lower themselves to a [`VarSetRef`] view.
///
/// Implemented for [`VarSet`], [`BitSet`], and `VarSetRef` itself, so
/// APIs like `PlanDag::node_for` accept any of the three without
/// conversion copies.
pub trait AsVarSetRef {
    /// The borrowed view of this set.
    fn as_set_ref(&self) -> VarSetRef<'_>;
}

impl AsVarSetRef for VarSet {
    #[inline]
    fn as_set_ref(&self) -> VarSetRef<'_> {
        match &self.repr {
            Repr::Sparse(elems) => VarSetRef::Sparse {
                elems,
                capacity: self.capacity,
            },
            Repr::Dense(blocks) => VarSetRef::Dense {
                blocks,
                capacity: self.capacity,
            },
        }
    }
}

impl AsVarSetRef for BitSet {
    #[inline]
    fn as_set_ref(&self) -> VarSetRef<'_> {
        VarSetRef::Dense {
            blocks: self.blocks(),
            capacity: self.capacity(),
        }
    }
}

impl<'a> AsVarSetRef for VarSetRef<'a> {
    #[inline]
    fn as_set_ref(&self) -> VarSetRef<'_> {
        *self
    }
}

impl<'a> VarSetRef<'a> {
    /// The universe size this view lives in.
    #[inline]
    pub fn capacity(self) -> usize {
        match self {
            VarSetRef::Sparse { capacity, .. } | VarSetRef::Dense { capacity, .. } => capacity,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(self) -> usize {
        match self {
            VarSetRef::Sparse { elems, .. } => elems.len(),
            VarSetRef::Dense { blocks, .. } => blocks.iter().map(|b| b.count_ones() as usize).sum(),
        }
    }

    /// True iff the set has no elements.
    #[inline]
    pub fn is_empty(self) -> bool {
        match self {
            VarSetRef::Sparse { elems, .. } => elems.is_empty(),
            VarSetRef::Dense { blocks, .. } => blocks.iter().all(|&b| b == 0),
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(self, element: usize) -> bool {
        match self {
            VarSetRef::Sparse { elems, .. } => {
                element <= u32::MAX as usize && elems.binary_search(&(element as u32)).is_ok()
            }
            VarSetRef::Dense { blocks, capacity } => {
                element < capacity && blocks[element / BITS] & (1u64 << (element % BITS)) != 0
            }
        }
    }

    /// Iterates over elements in ascending order.
    pub fn iter(self) -> VarSetIter<'a> {
        match self {
            VarSetRef::Sparse { elems, .. } => VarSetIter::Sparse(elems.iter()),
            VarSetRef::Dense { blocks, .. } => VarSetIter::Dense {
                blocks,
                next_block: 0,
                cur: 0,
                base: 0,
            },
        }
    }

    /// The smallest element, if any.
    pub fn first(self) -> Option<usize> {
        match self {
            VarSetRef::Sparse { elems, .. } => elems.first().map(|&e| e as usize),
            VarSetRef::Dense { blocks, .. } => blocks
                .iter()
                .enumerate()
                .find(|(_, &b)| b != 0)
                .map(|(i, &b)| i * BITS + b.trailing_zeros() as usize),
        }
    }

    fn check_compatible(self, other: VarSetRef<'_>) {
        debug_assert_eq!(
            self.capacity(),
            other.capacity(),
            "variable sets over different universes"
        );
    }

    /// `|self ∩ other|` without allocating.
    pub fn intersection_len(self, other: VarSetRef<'_>) -> usize {
        self.check_compatible(other);
        match (self, other) {
            (VarSetRef::Sparse { elems: a, .. }, VarSetRef::Sparse { elems: b, .. }) => {
                sparse_intersection_len(a, b)
            }
            (VarSetRef::Sparse { elems, .. }, dense @ VarSetRef::Dense { .. })
            | (dense @ VarSetRef::Dense { .. }, VarSetRef::Sparse { elems, .. }) => elems
                .iter()
                .filter(|&&e| dense.contains(e as usize))
                .count(),
            (VarSetRef::Dense { blocks: a, .. }, VarSetRef::Dense { blocks: b, .. }) => a
                .iter()
                .zip(b.iter())
                .map(|(x, y)| (x & y).count_ones() as usize)
                .sum(),
        }
    }

    /// `|self \ other|` without allocating.
    #[inline]
    pub fn difference_len(self, other: VarSetRef<'_>) -> usize {
        self.len() - self.intersection_len(other)
    }

    /// True iff the sets share no elements.
    pub fn is_disjoint(self, other: VarSetRef<'_>) -> bool {
        self.check_compatible(other);
        match (self, other) {
            (VarSetRef::Sparse { elems: a, .. }, VarSetRef::Sparse { elems: b, .. }) => {
                sparse_is_disjoint(a, b)
            }
            (VarSetRef::Sparse { elems, .. }, dense @ VarSetRef::Dense { .. })
            | (dense @ VarSetRef::Dense { .. }, VarSetRef::Sparse { elems, .. }) => {
                elems.iter().all(|&e| !dense.contains(e as usize))
            }
            (VarSetRef::Dense { blocks: a, .. }, VarSetRef::Dense { blocks: b, .. }) => {
                a.iter().zip(b.iter()).all(|(x, y)| x & y == 0)
            }
        }
    }

    /// True iff `self ⊆ other`.
    pub fn is_subset(self, other: VarSetRef<'_>) -> bool {
        self.check_compatible(other);
        match (self, other) {
            (VarSetRef::Sparse { elems: a, .. }, VarSetRef::Sparse { elems: b, .. }) => {
                sparse_is_subset(a, b)
            }
            (VarSetRef::Sparse { elems, .. }, dense @ VarSetRef::Dense { .. }) => {
                elems.iter().all(|&e| dense.contains(e as usize))
            }
            (VarSetRef::Dense { blocks: a, .. }, VarSetRef::Dense { blocks: b, .. }) => {
                a.iter().zip(b.iter()).all(|(x, y)| x & !y == 0)
            }
            (dense @ VarSetRef::Dense { .. }, sparse @ VarSetRef::Sparse { .. }) => {
                dense.len() <= sparse.len() && dense.iter().all(|e| sparse.contains(e))
            }
        }
    }

    /// Iterates `self △ other` (elements in exactly one set) ascending.
    pub fn symmetric_difference(self, other: VarSetRef<'a>) -> SymmetricDifference<'a> {
        self.check_compatible(other);
        SymmetricDifference {
            a: self.iter().peekable(),
            b: other.iter().peekable(),
        }
    }

    /// Deterministic 64-bit FNV-1a content hash over the ascending
    /// element sequence — representation-independent, used by the plan
    /// pool's `by_set` interning.
    pub fn hash64(self) -> u64 {
        match self {
            VarSetRef::Sparse { elems, .. } => fnv1a_extend(FNV_SEED, elems.iter().copied()),
            VarSetRef::Dense { .. } => fnv1a_extend(FNV_SEED, self.iter().map(|e| e as u32)),
        }
    }

    /// Materializes an owned [`VarSet`] with this view's contents.
    pub fn to_var_set(self) -> VarSet {
        match self {
            VarSetRef::Sparse { elems, capacity } => VarSet::from_sorted(capacity, elems.to_vec()),
            VarSetRef::Dense { blocks, capacity } => {
                let len: usize = blocks.iter().map(|b| b.count_ones() as usize).sum();
                if len <= sparse_limit(capacity) {
                    VarSet {
                        capacity,
                        repr: Repr::Sparse(self.iter().map(|e| e as u32).collect()),
                    }
                } else {
                    VarSet {
                        capacity,
                        repr: Repr::Dense(blocks.to_vec().into_boxed_slice()),
                    }
                }
            }
        }
    }

    /// Materializes a dense [`BitSet`] with this view's contents.
    pub fn to_bitset(self) -> BitSet {
        BitSet::from_elements(self.capacity(), self.iter())
    }

    /// Representation-independent set equality (same universe, same
    /// elements).
    pub fn set_eq(self, other: VarSetRef<'_>) -> bool {
        if self.capacity() != other.capacity() {
            return false;
        }
        match (self, other) {
            (VarSetRef::Sparse { elems: a, .. }, VarSetRef::Sparse { elems: b, .. }) => a == b,
            (VarSetRef::Dense { blocks: a, .. }, VarSetRef::Dense { blocks: b, .. }) => a == b,
            _ => self.len() == other.len() && self.is_subset(other),
        }
    }
}

fn sparse_intersection_len(a: &[u32], b: &[u32]) -> usize {
    let (small, big) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.len() * 16 < big.len() {
        // Galloping: membership-probe each element of the small side.
        let mut lo = 0usize;
        let mut count = 0usize;
        for &e in small {
            match big[lo..].binary_search(&e) {
                Ok(pos) => {
                    count += 1;
                    lo += pos + 1;
                }
                Err(pos) => lo += pos,
            }
            if lo >= big.len() {
                break;
            }
        }
        count
    } else {
        let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
        while i < small.len() && j < big.len() {
            match small[i].cmp(&big[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }
}

fn sparse_is_disjoint(a: &[u32], b: &[u32]) -> bool {
    let (small, big) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() || big.is_empty() {
        return true;
    }
    // Range prune: disjoint whenever the value ranges don't overlap.
    if small[small.len() - 1] < big[0] || big[big.len() - 1] < small[0] {
        return true;
    }
    if small.len() * 16 < big.len() {
        let mut lo = 0usize;
        for &e in small {
            match big[lo..].binary_search(&e) {
                Ok(_) => return false,
                Err(pos) => lo += pos,
            }
            if lo >= big.len() {
                return true;
            }
        }
        true
    } else {
        let (mut i, mut j) = (0usize, 0usize);
        while i < small.len() && j < big.len() {
            match small[i].cmp(&big[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return false,
            }
        }
        true
    }
}

fn sparse_is_subset(a: &[u32], b: &[u32]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    if a.len() * 16 < b.len() {
        let mut lo = 0usize;
        for &e in a {
            match b[lo..].binary_search(&e) {
                Ok(pos) => lo += pos + 1,
                Err(_) => return false,
            }
        }
        true
    } else {
        let mut j = 0usize;
        for &e in a {
            while j < b.len() && b[j] < e {
                j += 1;
            }
            if j >= b.len() || b[j] != e {
                return false;
            }
            j += 1;
        }
        true
    }
}

/// Ascending element iterator over either representation.
pub enum VarSetIter<'a> {
    /// Walking a sorted element slice.
    Sparse(std::slice::Iter<'a, u32>),
    /// Walking set bits of dense blocks.
    Dense {
        /// The blocks being walked.
        blocks: &'a [u64],
        /// Index of the next block to load into `cur`.
        next_block: usize,
        /// Remaining bits of the current block.
        cur: u64,
        /// Element index of the current block's bit 0.
        base: usize,
    },
}

impl Iterator for VarSetIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            VarSetIter::Sparse(it) => it.next().map(|&e| e as usize),
            VarSetIter::Dense {
                blocks,
                next_block,
                cur,
                base,
            } => {
                while *cur == 0 {
                    if *next_block >= blocks.len() {
                        return None;
                    }
                    *cur = blocks[*next_block];
                    *base = *next_block * BITS;
                    *next_block += 1;
                }
                let tz = cur.trailing_zeros() as usize;
                *cur &= *cur - 1;
                Some(*base + tz)
            }
        }
    }
}

/// Ascending iterator over `a △ b` — see
/// [`VarSetRef::symmetric_difference`].
pub struct SymmetricDifference<'a> {
    a: Peekable<VarSetIter<'a>>,
    b: Peekable<VarSetIter<'a>>,
}

impl Iterator for SymmetricDifference<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            match (self.a.peek().copied(), self.b.peek().copied()) {
                (None, None) => return None,
                (Some(_), None) => return self.a.next(),
                (None, Some(_)) => return self.b.next(),
                (Some(x), Some(y)) => match x.cmp(&y) {
                    std::cmp::Ordering::Less => return self.a.next(),
                    std::cmp::Ordering::Greater => return self.b.next(),
                    std::cmp::Ordering::Equal => {
                        self.a.next();
                        self.b.next();
                    }
                },
            }
        }
    }
}

impl VarSet {
    /// An empty set over the universe `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        VarSet {
            capacity,
            repr: Repr::Sparse(Vec::new()),
        }
    }

    /// A singleton set.
    ///
    /// # Panics
    /// Panics if `element >= capacity`.
    pub fn singleton(capacity: usize, element: usize) -> Self {
        assert!(element < capacity, "element {element} out of universe");
        VarSet {
            capacity,
            repr: Repr::Sparse(vec![element as u32]),
        }
    }

    /// Builds a set from element indices (any order, duplicates allowed).
    ///
    /// # Panics
    /// Panics if an element is `>= capacity`.
    pub fn from_elements<I: IntoIterator<Item = usize>>(capacity: usize, elements: I) -> Self {
        let mut elems: Vec<u32> = elements
            .into_iter()
            .map(|e| {
                assert!(e < capacity, "element {e} out of universe");
                e as u32
            })
            .collect();
        elems.sort_unstable();
        elems.dedup();
        VarSet::from_sorted(capacity, elems)
    }

    /// Builds a set from an already sorted, deduplicated element vector —
    /// the allocation-free fast path for CSR pool slices and merge
    /// outputs.
    pub fn from_sorted(capacity: usize, elems: Vec<u32>) -> Self {
        debug_assert!(
            elems.windows(2).all(|w| w[0] < w[1]),
            "from_sorted requires strictly ascending elements"
        );
        debug_assert!(elems.last().is_none_or(|&e| (e as usize) < capacity));
        let mut s = VarSet {
            capacity,
            repr: Repr::Sparse(elems),
        };
        s.maybe_promote();
        s
    }

    /// Converts a dense [`BitSet`], keeping whichever representation the
    /// size threshold selects.
    pub fn from_bitset(bits: &BitSet) -> Self {
        bits.as_set_ref().to_var_set()
    }

    /// The universe size this set lives in.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Heap footprint of the backing storage, in bytes — for
    /// deterministic memory accounting.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Sparse(elems) => elems.capacity() * std::mem::size_of::<u32>(),
            Repr::Dense(blocks) => blocks.len() * std::mem::size_of::<u64>(),
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_set_ref().len()
    }

    /// True iff the set has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.as_set_ref().is_empty()
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, element: usize) -> bool {
        self.as_set_ref().contains(element)
    }

    /// Iterates over elements in ascending order.
    pub fn iter(&self) -> VarSetIter<'_> {
        self.as_set_ref().iter()
    }

    /// The smallest element, if any.
    pub fn first(&self) -> Option<usize> {
        self.as_set_ref().first()
    }

    /// Removes all elements (reverting to the sparse representation).
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Sparse(elems) => elems.clear(),
            Repr::Dense(_) => self.repr = Repr::Sparse(Vec::new()),
        }
    }

    /// Inserts an element. Returns true if it was newly inserted.
    ///
    /// # Panics
    /// Panics if `element >= capacity`.
    pub fn insert(&mut self, element: usize) -> bool {
        assert!(element < self.capacity, "element {element} out of universe");
        let fresh = match &mut self.repr {
            Repr::Sparse(elems) => match elems.binary_search(&(element as u32)) {
                Ok(_) => false,
                Err(pos) => {
                    elems.insert(pos, element as u32);
                    true
                }
            },
            Repr::Dense(blocks) => {
                let block = &mut blocks[element / BITS];
                let mask = 1u64 << (element % BITS);
                let fresh = *block & mask == 0;
                *block |= mask;
                fresh
            }
        };
        self.maybe_promote();
        fresh
    }

    /// Removes an element. Returns true if it was present.
    pub fn remove(&mut self, element: usize) -> bool {
        match &mut self.repr {
            Repr::Sparse(elems) => {
                if element > u32::MAX as usize {
                    return false;
                }
                match elems.binary_search(&(element as u32)) {
                    Ok(pos) => {
                        elems.remove(pos);
                        true
                    }
                    Err(_) => false,
                }
            }
            Repr::Dense(blocks) => {
                if element >= self.capacity {
                    return false;
                }
                let block = &mut blocks[element / BITS];
                let mask = 1u64 << (element % BITS);
                let present = *block & mask != 0;
                *block &= !mask;
                present
            }
        }
    }

    fn maybe_promote(&mut self) {
        if let Repr::Sparse(elems) = &self.repr {
            if elems.len() > sparse_limit(self.capacity) {
                self.promote_to_dense();
            }
        }
    }

    fn promote_to_dense(&mut self) {
        if let Repr::Sparse(elems) = &self.repr {
            let mut blocks = vec![0u64; self.capacity.div_ceil(BITS)].into_boxed_slice();
            for &e in elems {
                blocks[e as usize / BITS] |= 1u64 << (e as usize % BITS);
            }
            self.repr = Repr::Dense(blocks);
        }
    }

    /// In-place union.
    pub fn union_with<S: AsVarSetRef + ?Sized>(&mut self, other: &S) {
        let other = other.as_set_ref();
        self.as_set_ref().check_compatible(other);
        match &mut self.repr {
            Repr::Dense(blocks) => match other {
                VarSetRef::Dense { blocks: b, .. } => {
                    for (x, y) in blocks.iter_mut().zip(b.iter()) {
                        *x |= y;
                    }
                }
                VarSetRef::Sparse { elems, .. } => {
                    for &e in elems {
                        blocks[e as usize / BITS] |= 1u64 << (e as usize % BITS);
                    }
                }
            },
            Repr::Sparse(elems) => match other {
                VarSetRef::Sparse { elems: b, .. } => {
                    let merged = merge_union(elems, b);
                    self.repr = Repr::Sparse(merged);
                    self.maybe_promote();
                }
                VarSetRef::Dense { .. } => {
                    self.promote_to_dense();
                    self.union_with(&other);
                }
            },
        }
    }

    /// New set: `self ∪ other`.
    pub fn union<S: AsVarSetRef + ?Sized>(&self, other: &S) -> VarSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// In-place intersection. A dense set intersected with a sparse one
    /// demotes to sparse (the result can be no bigger than the sparse
    /// side).
    pub fn intersect_with<S: AsVarSetRef + ?Sized>(&mut self, other: &S) {
        let other = other.as_set_ref();
        self.as_set_ref().check_compatible(other);
        match &mut self.repr {
            Repr::Sparse(elems) => elems.retain(|&e| other.contains(e as usize)),
            Repr::Dense(blocks) => match other {
                VarSetRef::Dense { blocks: b, .. } => {
                    for (x, y) in blocks.iter_mut().zip(b.iter()) {
                        *x &= y;
                    }
                }
                VarSetRef::Sparse { elems, .. } => {
                    let me = self.as_set_ref();
                    let kept: Vec<u32> = elems
                        .iter()
                        .copied()
                        .filter(|&e| me.contains(e as usize))
                        .collect();
                    self.repr = Repr::Sparse(kept);
                }
            },
        }
    }

    /// New set: `self ∩ other`.
    pub fn intersection<S: AsVarSetRef + ?Sized>(&self, other: &S) -> VarSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// In-place difference (`self \ other`).
    pub fn difference_with<S: AsVarSetRef + ?Sized>(&mut self, other: &S) {
        let other = other.as_set_ref();
        self.as_set_ref().check_compatible(other);
        match &mut self.repr {
            Repr::Sparse(elems) => elems.retain(|&e| !other.contains(e as usize)),
            Repr::Dense(blocks) => match other {
                VarSetRef::Dense { blocks: b, .. } => {
                    for (x, y) in blocks.iter_mut().zip(b.iter()) {
                        *x &= !y;
                    }
                }
                VarSetRef::Sparse { elems, .. } => {
                    for &e in elems {
                        blocks[e as usize / BITS] &= !(1u64 << (e as usize % BITS));
                    }
                }
            },
        }
    }

    /// New set: `self \ other`.
    pub fn difference<S: AsVarSetRef + ?Sized>(&self, other: &S) -> VarSet {
        let mut out = self.clone();
        out.difference_with(other);
        out
    }

    /// `|self ∩ other|` without allocating.
    #[inline]
    pub fn intersection_len<S: AsVarSetRef + ?Sized>(&self, other: &S) -> usize {
        self.as_set_ref().intersection_len(other.as_set_ref())
    }

    /// `|self \ other|` without allocating.
    #[inline]
    pub fn difference_len<S: AsVarSetRef + ?Sized>(&self, other: &S) -> usize {
        self.as_set_ref().difference_len(other.as_set_ref())
    }

    /// True iff the sets share no elements.
    #[inline]
    pub fn is_disjoint<S: AsVarSetRef + ?Sized>(&self, other: &S) -> bool {
        self.as_set_ref().is_disjoint(other.as_set_ref())
    }

    /// True iff `self ⊆ other`.
    #[inline]
    pub fn is_subset<S: AsVarSetRef + ?Sized>(&self, other: &S) -> bool {
        self.as_set_ref().is_subset(other.as_set_ref())
    }

    /// Deterministic 64-bit content hash — see [`VarSetRef::hash64`].
    #[inline]
    pub fn hash64(&self) -> u64 {
        self.as_set_ref().hash64()
    }

    /// Materializes a dense [`BitSet`] with the same contents.
    pub fn to_bitset(&self) -> BitSet {
        self.as_set_ref().to_bitset()
    }
}

fn merge_union(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl PartialEq for VarSetRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.set_eq(*other)
    }
}

impl Eq for VarSetRef<'_> {}

impl PartialEq<BitSet> for VarSetRef<'_> {
    fn eq(&self, other: &BitSet) -> bool {
        self.set_eq(other.as_set_ref())
    }
}

impl PartialEq<VarSet> for VarSetRef<'_> {
    fn eq(&self, other: &VarSet) -> bool {
        self.set_eq(other.as_set_ref())
    }
}

impl PartialEq for VarSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_set_ref().set_eq(other.as_set_ref())
    }
}

impl Eq for VarSet {}

impl PartialEq<BitSet> for VarSet {
    fn eq(&self, other: &BitSet) -> bool {
        self.as_set_ref().set_eq(other.as_set_ref())
    }
}

impl PartialEq<VarSet> for BitSet {
    fn eq(&self, other: &VarSet) -> bool {
        self.as_set_ref().set_eq(other.as_set_ref())
    }
}

impl Hash for VarSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Over elements, not storage: a sparse set and its dense twin
        // must collide. Capacity is excluded, mirroring `BitSet`.
        for e in self.iter() {
            state.write_u32(e as u32);
        }
    }
}

impl fmt::Debug for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Debug for VarSetRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::BTreeSet;

    fn sparse(capacity: usize, elems: &[usize]) -> VarSet {
        let s = VarSet::from_elements(capacity, elems.iter().copied());
        assert!(matches!(s.repr, Repr::Sparse(_)) || elems.len() > sparse_limit(capacity));
        s
    }

    fn dense(capacity: usize, elems: &[usize]) -> VarSet {
        let mut s = VarSet::from_elements(capacity, elems.iter().copied());
        s.promote_to_dense();
        assert!(matches!(s.repr, Repr::Dense(_)));
        s
    }

    fn std_hash(s: &VarSet) -> u64 {
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    #[test]
    fn insert_contains_remove_both_reprs() {
        for make in [sparse as fn(usize, &[usize]) -> VarSet, dense] {
            let mut s = make(130, &[0, 64, 129]);
            assert!(!s.insert(64), "double insert reports false");
            assert!(s.insert(10));
            assert!(s.contains(0) && s.contains(64) && s.contains(129) && s.contains(10));
            assert!(!s.contains(1));
            assert_eq!(s.len(), 4);
            assert!(s.remove(64));
            assert!(!s.remove(64));
            assert_eq!(s.len(), 3);
            assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 10, 129]);
            assert_eq!(s.first(), Some(0));
        }
    }

    #[test]
    fn promotion_at_threshold() {
        let capacity = 2048; // sparse_limit = 64
        let mut s = VarSet::new(capacity);
        for e in 0..sparse_limit(capacity) {
            s.insert(2 * e);
        }
        assert!(
            matches!(s.repr, Repr::Sparse(_)),
            "at the limit stays sparse"
        );
        s.insert(2047);
        assert!(matches!(s.repr, Repr::Dense(_)), "past the limit promotes");
        assert_eq!(s.len(), sparse_limit(capacity) + 1);
    }

    #[test]
    fn intersection_with_sparse_demotes() {
        let a = dense(1024, &[1, 5, 9, 700]);
        let inter = a.intersection(&sparse(1024, &[5, 700, 900]));
        assert!(matches!(inter.repr, Repr::Sparse(_)));
        assert_eq!(inter.iter().collect::<Vec<_>>(), vec![5, 700]);
    }

    #[test]
    fn equality_and_hash_ignore_representation() {
        let a = sparse(512, &[3, 77, 200]);
        let b = dense(512, &[3, 77, 200]);
        assert_eq!(a, b);
        assert_eq!(a.hash64(), b.hash64());
        assert_eq!(std_hash(&a), std_hash(&b));
        assert_ne!(a, sparse(512, &[3, 77]));
    }

    #[test]
    fn bitset_interop() {
        let bits = BitSet::from_elements(300, [4usize, 90, 250]);
        let v = VarSet::from_bitset(&bits);
        assert_eq!(v, bits);
        assert_eq!(bits, v);
        assert_eq!(v.to_bitset(), bits);
        assert_eq!(v.intersection_len(&bits), 3);
        assert!(v.is_subset(&bits) && bits.as_set_ref().is_subset(v.as_set_ref()));
    }

    #[test]
    fn symmetric_difference_merges_ascending() {
        let a = sparse(100, &[1, 2, 3, 70]);
        let b = dense(100, &[2, 3, 4]);
        let sym: Vec<usize> = a
            .as_set_ref()
            .symmetric_difference(b.as_set_ref())
            .collect();
        assert_eq!(sym, vec![1, 4, 70]);
    }

    #[test]
    fn incremental_fnv_matches_whole_set() {
        let elems = [7u32, 19, 23, 800];
        let whole = fnv1a_extend(FNV_SEED, elems.iter().copied());
        let prefix = fnv1a_extend(FNV_SEED, elems[..2].iter().copied());
        assert_eq!(fnv1a_extend(prefix, elems[2..].iter().copied()), whole);
        let s = VarSet::from_elements(1024, elems.iter().map(|&e| e as usize));
        assert_eq!(s.hash64(), whole);
    }

    proptest! {
        /// Sparse/dense op equivalence across the promotion threshold:
        /// every operation, in every representation pairing, matches the
        /// `BTreeSet` model. Universe 1024 puts `sparse_limit` at 32, so
        /// the 0..80-element generators straddle the boundary.
        #[test]
        fn reprs_agree_with_model(
            xs in proptest::collection::btree_set(0usize..1024, 0..80),
            ys in proptest::collection::btree_set(0usize..1024, 0..80),
        ) {
            let cap = 1024;
            let variants = |s: &BTreeSet<usize>| {
                let mut d = VarSet::from_elements(cap, s.iter().copied());
                d.promote_to_dense();
                [VarSet::from_elements(cap, s.iter().copied()), d]
            };
            let union: Vec<usize> = xs.union(&ys).copied().collect();
            let inter: Vec<usize> = xs.intersection(&ys).copied().collect();
            let diff: Vec<usize> = xs.difference(&ys).copied().collect();
            let sym: Vec<usize> = xs.symmetric_difference(&ys).copied().collect();
            for a in variants(&xs) {
                prop_assert_eq!(a.iter().collect::<Vec<_>>(),
                                xs.iter().copied().collect::<Vec<_>>());
                prop_assert_eq!(a.len(), xs.len());
                prop_assert_eq!(a.first(), xs.first().copied());
                for b in variants(&ys) {
                    prop_assert_eq!(a.union(&b).iter().collect::<Vec<_>>(), union.clone());
                    prop_assert_eq!(a.intersection(&b).iter().collect::<Vec<_>>(), inter.clone());
                    prop_assert_eq!(a.difference(&b).iter().collect::<Vec<_>>(), diff.clone());
                    prop_assert_eq!(
                        a.as_set_ref().symmetric_difference(b.as_set_ref())
                            .collect::<Vec<_>>(),
                        sym.clone());
                    prop_assert_eq!(a.intersection_len(&b), inter.len());
                    prop_assert_eq!(a.difference_len(&b), diff.len());
                    prop_assert_eq!(a.is_subset(&b), xs.is_subset(&ys));
                    prop_assert_eq!(a.is_disjoint(&b), xs.is_disjoint(&ys));
                    prop_assert_eq!(a == b, xs == ys);
                    if xs == ys {
                        prop_assert_eq!(a.hash64(), b.hash64());
                        prop_assert_eq!(std_hash(&a), std_hash(&b));
                    }
                }
                // BitSet views agree with same-content VarSets.
                let bits = BitSet::from_elements(cap, ys.iter().copied());
                prop_assert_eq!(a.intersection_len(&bits), inter.len());
                prop_assert_eq!(a.is_subset(&bits), xs.is_subset(&ys));
                prop_assert_eq!(a.is_disjoint(&bits), xs.is_disjoint(&ys));
            }
        }

        /// Mutation paths preserve the model across promotions.
        #[test]
        fn mutation_matches_model(
            base in proptest::collection::btree_set(0usize..1024, 0..40),
            ops in proptest::collection::vec(
                (0usize..1024, proptest::strategy::any::<bool>()), 0..64),
        ) {
            let mut model = base.clone();
            let mut s = VarSet::from_elements(1024, base.iter().copied());
            for (e, add) in ops {
                if add {
                    prop_assert_eq!(s.insert(e), model.insert(e));
                } else {
                    prop_assert_eq!(s.remove(e), model.remove(&e));
                }
                prop_assert_eq!(s.len(), model.len());
            }
            prop_assert_eq!(s.iter().collect::<Vec<_>>(),
                            model.iter().copied().collect::<Vec<_>>());
        }
    }
}
