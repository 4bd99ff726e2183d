//! A Bloom filter.
//!
//! The paper repeatedly names Bloom-filter union as an aggregation
//! operator in the semilattice class its hardness results cover ("our
//! results in this subsection apply to any meet or join operator, such as
//! min, max, Bloom filter unions, etc."). This is that substrate: a
//! fixed-geometry Bloom filter whose union is associative, commutative,
//! and idempotent with the empty filter as identity — exactly axioms
//! A1–A4.
//!
//! Hashing is double hashing over two independent 64-bit mixers (the
//! standard Kirsch–Mitzenmacher construction), dependency-free.

/// A Bloom filter over `u64` keys with fixed geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    m_bits: usize,
    hashes: u32,
}

/// 64-bit mix (splitmix64 finalizer) — the first hash. Crate-visible so
/// the lazy planner's single-word signature blooms reuse the same
/// double-hash family without carrying a full filter per node.
pub(crate) fn mix1(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A second, independent mix (murmur3 finalizer with different constants).
pub(crate) fn mix2(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

impl BloomFilter {
    /// An empty filter with `m_bits` bits and `hashes` hash functions.
    ///
    /// # Panics
    /// Panics if `m_bits == 0` or `hashes == 0`.
    pub fn new(m_bits: usize, hashes: u32) -> Self {
        assert!(m_bits > 0 && hashes > 0, "degenerate Bloom geometry");
        BloomFilter {
            bits: vec![0u64; m_bits.div_ceil(64)],
            m_bits,
            hashes,
        }
    }

    /// Geometry sized for `expected_items` at roughly
    /// `false_positive_rate`, using the standard formulas
    /// `m = −n ln p / (ln 2)²`, `k = (m/n) ln 2`.
    pub fn with_capacity(expected_items: usize, false_positive_rate: f64) -> Self {
        let n = expected_items.max(1) as f64;
        let p = false_positive_rate.clamp(1e-9, 0.5);
        let m = (-(n * p.ln()) / (2f64.ln().powi(2))).ceil().max(64.0) as usize;
        let k = ((m as f64 / n) * 2f64.ln()).round().max(1.0) as u32;
        BloomFilter::new(m, k)
    }

    fn positions(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let h1 = mix1(key);
        let h2 = mix2(key) | 1; // odd stride
        let m = self.m_bits as u64;
        (0..self.hashes as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) % m) as usize)
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: u64) {
        let positions: Vec<usize> = self.positions(key).collect();
        for pos in positions {
            self.bits[pos / 64] |= 1u64 << (pos % 64);
        }
    }

    /// Membership test: false means definitely absent; true means
    /// probably present.
    pub fn contains(&self, key: u64) -> bool {
        self.positions(key)
            .all(|pos| self.bits[pos / 64] & (1u64 << (pos % 64)) != 0)
    }

    /// The union (bitwise OR) of two filters — the semilattice ⊕.
    ///
    /// # Panics
    /// Panics on geometry mismatch (different universes).
    pub fn union(&self, other: &BloomFilter) -> BloomFilter {
        assert_eq!(self.m_bits, other.m_bits, "geometry mismatch");
        assert_eq!(self.hashes, other.hashes, "geometry mismatch");
        let bits = self
            .bits
            .iter()
            .zip(&other.bits)
            .map(|(a, b)| a | b)
            .collect();
        BloomFilter {
            bits,
            m_bits: self.m_bits,
            hashes: self.hashes,
        }
    }

    /// The intersection (bitwise AND) — also named by the paper's
    /// future-work aggregate list. Note intersected filters may report
    /// extra false positives relative to a filter built from the exact
    /// intersection.
    pub fn intersection(&self, other: &BloomFilter) -> BloomFilter {
        assert_eq!(self.m_bits, other.m_bits, "geometry mismatch");
        assert_eq!(self.hashes, other.hashes, "geometry mismatch");
        let bits = self
            .bits
            .iter()
            .zip(&other.bits)
            .map(|(a, b)| a & b)
            .collect();
        BloomFilter {
            bits,
            m_bits: self.m_bits,
            hashes: self.hashes,
        }
    }

    /// Number of set bits (diagnostic; drives fill-ratio estimates).
    pub fn popcount(&self) -> usize {
        self.bits.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// True iff no key was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&b| b == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_capacity(100, 0.01);
        for key in 0..100u64 {
            f.insert(key * 7919);
        }
        for key in 0..100u64 {
            assert!(f.contains(key * 7919));
        }
    }

    #[test]
    fn false_positive_rate_is_reasonable() {
        let mut f = BloomFilter::with_capacity(1000, 0.01);
        for key in 0..1000u64 {
            f.insert(key);
        }
        let fps = (1_000_000u64..1_010_000).filter(|&k| f.contains(k)).count();
        let rate = fps as f64 / 10_000.0;
        assert!(rate < 0.05, "false positive rate {rate} too high");
    }

    #[test]
    fn union_is_semilattice() {
        let mut a = BloomFilter::new(256, 3);
        let mut b = BloomFilter::new(256, 3);
        let mut c = BloomFilter::new(256, 3);
        a.insert(1);
        b.insert(2);
        c.insert(3);
        // A1, A4, A3, A2.
        assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        assert_eq!(a.union(&b), b.union(&a));
        assert_eq!(a.union(&a), a);
        let e = BloomFilter::new(256, 3);
        assert_eq!(a.union(&e), a);
    }

    #[test]
    fn union_preserves_membership() {
        let mut a = BloomFilter::new(512, 4);
        let mut b = BloomFilter::new(512, 4);
        a.insert(10);
        b.insert(20);
        let u = a.union(&b);
        assert!(u.contains(10) && u.contains(20));
    }

    #[test]
    fn intersection_keeps_common_keys() {
        let mut a = BloomFilter::new(512, 4);
        let mut b = BloomFilter::new(512, 4);
        for k in [1u64, 2, 3] {
            a.insert(k);
        }
        for k in [3u64, 4, 5] {
            b.insert(k);
        }
        let i = a.intersection(&b);
        assert!(i.contains(3));
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn union_rejects_mismatch() {
        let _ = BloomFilter::new(64, 2).union(&BloomFilter::new(128, 2));
    }

    #[test]
    fn empty_detection() {
        let mut f = BloomFilter::new(64, 2);
        assert!(f.is_empty());
        f.insert(9);
        assert!(!f.is_empty());
        assert!(f.popcount() >= 1);
    }

    proptest! {
        /// Inserted keys are always found (no false negatives), under any
        /// geometry.
        #[test]
        fn never_false_negative(
            keys in proptest::collection::vec(any::<u64>(), 1..50),
            m in 64usize..1024,
            h in 1u32..8,
        ) {
            let mut f = BloomFilter::new(m, h);
            for &k in &keys {
                f.insert(k);
            }
            for &k in &keys {
                prop_assert!(f.contains(k));
            }
        }
    }
}
