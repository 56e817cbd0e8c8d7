//! Sparse byte-addressable memory for functional execution.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Hashes page numbers for the page map: a multiply by the 64-bit golden
/// ratio, folded so the low bits (the bucket index) also see the high
/// ones. SipHash's keyed hashing buys nothing here: page numbers come
/// from the workload, not from outside the program, and
/// [`SparseMemory`]'s `Hash` sorts pages rather than trusting map order.
#[derive(Debug, Default, Clone, Copy)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let h = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

/// The page number of `addr` and `addr`'s offset inside that page.
fn split(addr: u64) -> (u64, usize) {
    (addr >> PAGE_SHIFT, (addr as usize) & (PAGE_SIZE - 1))
}

/// A sparse 64-bit byte-addressable memory backed by 4 KiB pages.
///
/// Unwritten memory reads as zero, which lets workloads run over large
/// footprints without materializing them. An access that stays inside
/// one page costs one page lookup and a slice copy; only page-crossing
/// accesses go byte by byte.
#[derive(Debug, Default, Clone)]
pub struct SparseMemory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageHasher>>,
}

impl std::hash::Hash for SparseMemory {
    /// Hashes the resident pages in ascending page-number order, so the
    /// digest depends only on memory *contents*, never on `HashMap`
    /// iteration order (which varies across processes).
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let mut page_nums: Vec<u64> = self.pages.keys().copied().collect();
        page_nums.sort_unstable();
        page_nums.len().hash(state);
        for num in page_nums {
            num.hash(state);
            state.write(&self.pages[&num][..]);
        }
    }
}

impl SparseMemory {
    /// Creates an empty memory.
    #[must_use]
    pub fn new() -> Self {
        SparseMemory::default()
    }

    /// Number of materialized (written) pages.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// The page numbered `page`, materialized (zeroed) on first use.
    fn page_mut(&mut self, page: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(page)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads one byte (zero if never written).
    #[must_use]
    pub fn read_u8(&self, addr: u64) -> u8 {
        let (page, off) = split(addr);
        self.pages.get(&page).map_or(0, |p| p[off])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        let (page, off) = split(addr);
        self.page_mut(page)[off] = val;
    }

    /// Reads `N` little-endian bytes starting at `addr` (addresses wrap
    /// at 2^64).
    #[must_use]
    pub fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut out = [0u8; N];
        let (page, off) = split(addr);
        if off + N <= PAGE_SIZE {
            if let Some(p) = self.pages.get(&page) {
                out.copy_from_slice(&p[off..off + N]);
            }
        } else {
            for (i, b) in out.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u64));
            }
        }
        out
    }

    /// Writes bytes starting at `addr` (addresses wrap at 2^64). Every
    /// page the bytes land on becomes resident, even for zero bytes.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        let (page, off) = split(addr);
        if off + bytes.len() <= PAGE_SIZE {
            self.page_mut(page)[off..off + bytes.len()].copy_from_slice(bytes);
        } else {
            for (i, b) in bytes.iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u64), *b);
            }
        }
    }

    /// Reads a little-endian `u32`.
    #[must_use]
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes::<4>(addr))
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, val: u32) {
        self.write_bytes(addr, &val.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    #[must_use]
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes::<8>(addr))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        self.write_bytes(addr, &val.to_le_bytes());
    }

    /// Reads an `f64` stored in little-endian byte order.
    #[must_use]
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64` in little-endian byte order.
    pub fn write_f64(&mut self, addr: u64, val: f64) {
        self.write_u64(addr, val.to_bits());
    }

    /// Reads an `f32` stored in little-endian byte order.
    #[must_use]
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an `f32` in little-endian byte order.
    pub fn write_f32(&mut self, addr: u64, val: f32) {
        self.write_u32(addr, val.to_bits());
    }

    /// Reads a 128-bit value as two little-endian `u64` words
    /// (`[low, high]`).
    #[must_use]
    pub fn read_u128_words(&self, addr: u64) -> [u64; 2] {
        [self.read_u64(addr), self.read_u64(addr + 8)]
    }

    /// Writes a 128-bit value as two little-endian `u64` words.
    pub fn write_u128_words(&mut self, addr: u64, words: [u64; 2]) {
        self.write_u64(addr, words[0]);
        self.write_u64(addr + 8, words[1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv::Fnv1aHasher;
    use std::collections::BTreeMap;
    use std::hash::Hash;

    #[test]
    fn unwritten_reads_zero() {
        let m = SparseMemory::new();
        assert_eq!(m.read_u8(0xdead_beef), 0);
        assert_eq!(m.read_u64(0x1234), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn u64_roundtrip_and_page_accounting() {
        let mut m = SparseMemory::new();
        m.write_u64(0x1000, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(0x1000), 0x0123_4567_89ab_cdef);
        assert_eq!(m.resident_pages(), 1);
        m.write_u64(0x2000, 1);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn cross_page_access() {
        let mut m = SparseMemory::new();
        m.write_u64(0x1ffc, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(0x1ffc), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn float_roundtrips() {
        let mut m = SparseMemory::new();
        m.write_f64(64, -3.25);
        assert_eq!(m.read_f64(64), -3.25);
        m.write_f32(128, 1.5);
        assert_eq!(m.read_f32(128), 1.5);
    }

    #[test]
    fn vector_roundtrip() {
        let mut m = SparseMemory::new();
        m.write_u128_words(256, [0xaa, 0xbb]);
        assert_eq!(m.read_u128_words(256), [0xaa, 0xbb]);
    }

    /// The specification of [`SparseMemory`]: every access goes one
    /// byte at a time, and pages are kept in address order.
    #[derive(Default)]
    struct ByteWise(BTreeMap<u64, Vec<u8>>);

    impl ByteWise {
        fn write(&mut self, addr: u64, bytes: &[u8]) {
            for (i, &b) in bytes.iter().enumerate() {
                let (page, off) = split(addr.wrapping_add(i as u64));
                self.0.entry(page).or_insert_with(|| vec![0; PAGE_SIZE])[off] = b;
            }
        }

        fn read(&self, addr: u64, n: usize) -> Vec<u8> {
            (0..n)
                .map(|i| {
                    let (page, off) = split(addr.wrapping_add(i as u64));
                    self.0.get(&page).map_or(0, |p| p[off])
                })
                .collect()
        }

        /// The digest `SparseMemory`'s `Hash` must give for these pages.
        fn digest(&self) -> u64 {
            let mut h = Fnv1aHasher::new();
            self.0.len().hash(&mut h);
            for (num, page) in &self.0 {
                num.hash(&mut h);
                h.write(page);
            }
            h.finish()
        }
    }

    fn digest(m: &SparseMemory) -> u64 {
        let mut h = Fnv1aHasher::new();
        m.hash(&mut h);
        h.finish()
    }

    fn read_n(m: &SparseMemory, addr: u64, n: usize) -> Vec<u8> {
        match n {
            1 => vec![m.read_u8(addr)],
            2 => m.read_bytes::<2>(addr).to_vec(),
            4 => m.read_u32(addr).to_le_bytes().to_vec(),
            8 => m.read_u64(addr).to_le_bytes().to_vec(),
            _ => m.read_bytes::<16>(addr).to_vec(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn page_at_a_time_access_matches_byte_wise_reference(
            accesses in proptest::collection::vec(
                (0u8..3, 0usize..5, 0usize..8, 0u64..192, 0u64..u64::MAX),
                1..400,
            ),
        ) {
            // Low pages, a far region, and the top page, whose crossing
            // accesses wrap to page 0.
            const PAGES: [u64; 8] = [0, 1, 2, 3, 0x10_0000, 0x10_0001, u64::MAX >> PAGE_SHIFT, 7];
            let mut mem = SparseMemory::new();
            let mut reference = ByteWise::default();
            for &(kind, size, page, off, value) in &accesses {
                let n = [1, 2, 4, 8, 16][size];
                // Page starts, page ends (crossing for n > 1) and the middle.
                let off = match off {
                    0..=63 => off,
                    64..=127 => PAGE_SIZE as u64 - 128 + off,
                    _ => off * 17,
                };
                let addr = (PAGES[page] << PAGE_SHIFT).wrapping_add(off);
                let bytes: Vec<u8> = (0..n)
                    .map(|i| if kind == 2 { 0 } else { (value >> (8 * (i % 8))) as u8 ^ i as u8 })
                    .collect();
                if kind == 0 {
                    proptest::prop_assert_eq!(read_n(&mem, addr, n), reference.read(addr, n));
                } else {
                    mem.write_bytes(addr, &bytes);
                    reference.write(addr, &bytes);
                }
            }
            proptest::prop_assert_eq!(mem.resident_pages(), reference.0.len());
            proptest::prop_assert_eq!(digest(&mem), reference.digest());
        }
    }

    #[test]
    fn empty_write_materializes_nothing() {
        let mut m = SparseMemory::new();
        m.write_bytes(0x5000, &[]);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = SparseMemory::new();
        m.write_u32(0, 0x0102_0304);
        assert_eq!(m.read_u8(0), 0x04);
        assert_eq!(m.read_u8(3), 0x01);
    }
}
