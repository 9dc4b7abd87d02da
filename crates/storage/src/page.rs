//! Fixed-size pages with little-endian field codecs, and the workspace's one
//! checksum ([`checksum`] / [`Checksum`]): every page write and verified
//! page read, the `MANIFEST` `crc` line and the whole-file sums recovery
//! checks all use it.

/// Size of every on-disk page, in bytes.
pub const PAGE_SIZE: usize = 8192;

/// Odd multiplier of every mixing step (2⁶⁴/φ, rounded to odd).
const ODD: u64 = 0x9e37_79b9_7f4a_7c15;
/// Right-shift of every mixing step.
const SHIFT: u32 = 29;
/// Initial lane states (hex digits of π), distinct so that equal words in
/// different lanes do not contribute identically.
const SEEDS: [u64; LANES] =
    [0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344, 0xa409_3822_299f_31d0, 0x082e_fa98_ec4e_6c89];
const LANES: usize = 4;
/// Bytes consumed per round: one little-endian `u64` word per lane.
const BLOCK: usize = LANES * 8;

/// One mixing step: `(state ^ w) · ODD`, then `^= >> SHIFT`.
///
/// For a fixed `state` it is injective in `w` (xor, then two bijections);
/// for a fixed `w` it is a bijection of `state` (xor, multiply by an odd
/// constant, xorshift). Those two facts are the whole detection argument.
#[inline(always)]
fn mix(state: u64, w: u64) -> u64 {
    let x = (state ^ w).wrapping_mul(ODD);
    x ^ (x >> SHIFT)
}

#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(bytes);
    u64::from_le_bytes(b)
}

/// Streaming state of the workspace checksum; [`checksum`] is the one-shot
/// form. Splitting the input across any number of [`Checksum::update`]
/// calls gives the same sum.
///
/// The input is read as little-endian `u64` words dealt round-robin into
/// four independent lanes, each advanced by one mixing step
/// `lane = (lane ^ w) · ODD; lane ^= lane >> 29`. [`Checksum::finish`]
/// folds the four lanes, the zero-padded tail words and the byte length
/// into one state with the same step, then applies a final bijective
/// avalanche.
///
/// Every change confined to a single word — in particular any one-byte
/// flip — changes the sum with certainty: the changed word alters its
/// lane's state (injective step), every later step on that lane and every
/// fold step is a bijection of the state, and the other lanes are
/// unaffected. Wider damage is caught with the usual ~2⁻⁶⁴ miss rate of a
/// 64-bit hash. Not cryptographic: the goal is torn writes, bit rot and
/// truncation, at memory speed (four independent multiply chains per 32
/// bytes instead of one multiply per byte).
#[derive(Clone, Debug)]
pub struct Checksum {
    lanes: [u64; LANES],
    /// Bytes not yet forming a whole block.
    pending: [u8; BLOCK],
    pending_len: usize,
    total: u64,
}

impl Default for Checksum {
    fn default() -> Self {
        Self::new()
    }
}

impl Checksum {
    /// The state of an empty input.
    pub fn new() -> Self {
        Checksum { lanes: SEEDS, pending: [0; BLOCK], pending_len: 0, total: 0 }
    }

    /// Runs one round per whole block of `blocks` (a multiple of `BLOCK`
    /// bytes), with the lanes held in locals so the four multiply chains
    /// stay in scalar registers.
    #[inline(always)]
    fn rounds(&mut self, blocks: &[u8]) {
        use std::hint::black_box;
        let [mut a, mut b, mut c, mut d] = self.lanes;
        // Fixed-size chunks: no per-word bounds checks in the loop.
        for block in blocks.as_chunks::<BLOCK>().0 {
            let [w0, w1, w2, w3] = block.as_chunks::<8>().0 else { unreachable!() };
            a = mix(a, u64::from_le_bytes(*w0));
            b = mix(b, u64::from_le_bytes(*w1));
            c = mix(c, u64::from_le_bytes(*w2));
            d = mix(d, u64::from_le_bytes(*w3));
        }
        // Storing the four lanes side by side otherwise lets the compiler
        // turn the loop into SSE2 code that emulates each 64-bit multiply
        // with three 32-bit ones — half the speed of four scalar `imul`s.
        self.lanes = [black_box(a), black_box(b), black_box(c), black_box(d)];
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total = self.total.wrapping_add(bytes.len() as u64);
        if self.pending_len > 0 {
            let take = (BLOCK - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < BLOCK {
                return;
            }
            let block = self.pending;
            self.rounds(&block);
            self.pending_len = 0;
        }
        let whole = bytes.len() / BLOCK * BLOCK;
        self.rounds(&bytes[..whole]);
        let rest = &bytes[whole..];
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// The checksum of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        let mut h = self.lanes.iter().fold(0, |h, &lane| mix(h, lane));
        let mut tail = [0u8; BLOCK];
        tail[..self.pending_len].copy_from_slice(&self.pending[..self.pending_len]);
        for w in tail[..self.pending_len.div_ceil(8) * 8].chunks_exact(8) {
            h = mix(h, word(w));
        }
        h = mix(h, self.total);
        // Final avalanche (xorshift-multiply, all bijective) so the low
        // bits depend on every lane.
        h ^= h >> 32;
        h = h.wrapping_mul(ODD);
        h ^ (h >> 32)
    }
}

/// The workspace checksum of `bytes` (see [`Checksum`]).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut c = Checksum::new();
    c.update(bytes);
    c.finish()
}

/// Zero-based page number within one file.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PageId(pub u64);

impl PageId {
    /// Byte offset of this page inside its file.
    #[inline]
    pub fn byte_offset(self) -> u64 {
        self.0 * PAGE_SIZE as u64
    }
}

/// An in-memory 8 KiB page.
///
/// Pages are plain byte buffers; each storage structure (heap, B-tree,
/// R-tree) defines its own layout on top using the typed accessors here.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Page {
    /// A zeroed page.
    pub fn zeroed() -> Self {
        Page { data: Box::new([0u8; PAGE_SIZE]) }
    }

    /// Raw bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Raw bytes, mutable.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }

    /// Resets the page to all zeros.
    pub fn clear(&mut self) {
        self.data.fill(0);
    }

    /// Checksum of the page contents (see [`checksum`]).
    pub fn checksum(&self) -> u64 {
        checksum(&self.data[..])
    }

    /// Reads a `u16` at byte offset `off`.
    #[inline]
    pub fn get_u16(&self, off: usize) -> u16 {
        let mut b = [0u8; 2];
        b.copy_from_slice(&self.data[off..off + 2]);
        u16::from_le_bytes(b)
    }

    /// Writes a `u16` at byte offset `off`.
    #[inline]
    pub fn put_u16(&mut self, off: usize, v: u16) {
        self.data[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a `u32` at byte offset `off`.
    #[inline]
    pub fn get_u32(&self, off: usize) -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.data[off..off + 4]);
        u32::from_le_bytes(b)
    }

    /// Writes a `u32` at byte offset `off`.
    #[inline]
    pub fn put_u32(&mut self, off: usize, v: u32) {
        self.data[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a `u64` at byte offset `off`.
    #[inline]
    pub fn get_u64(&self, off: usize) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.data[off..off + 8]);
        u64::from_le_bytes(b)
    }

    /// Writes a `u64` at byte offset `off`.
    #[inline]
    pub fn put_u64(&mut self, off: usize, v: u64) {
        self.data[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads `n` consecutive `u64`s starting at `off` into `out`.
    pub fn get_u64s(&self, off: usize, out: &mut [u64]) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.get_u64(off + i * 8);
        }
    }

    /// Writes all of `vals` as consecutive `u64`s starting at `off`.
    pub fn put_u64s(&mut self, off: usize, vals: &[u64]) {
        for (i, &v) in vals.iter().enumerate() {
            self.put_u64(off + i * 8, v);
        }
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::zeroed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_accessors_roundtrip() {
        let mut p = Page::zeroed();
        p.put_u16(0, 0xBEEF);
        p.put_u32(2, 0xDEAD_BEEF);
        p.put_u64(6, u64::MAX - 3);
        assert_eq!(p.get_u16(0), 0xBEEF);
        assert_eq!(p.get_u32(2), 0xDEAD_BEEF);
        assert_eq!(p.get_u64(6), u64::MAX - 3);
    }

    #[test]
    fn u64_slices_roundtrip() {
        let mut p = Page::zeroed();
        let vals = [1u64, 2, u64::MAX, 0, 42];
        p.put_u64s(100, &vals);
        let mut out = [0u64; 5];
        p.get_u64s(100, &mut out);
        assert_eq!(out, vals);
    }

    #[test]
    fn clear_zeroes_everything() {
        let mut p = Page::zeroed();
        p.put_u64(8000, 7);
        p.clear();
        assert_eq!(p.get_u64(8000), 0);
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        let mut p = Page::zeroed();
        let zero_sum = p.checksum();
        assert_eq!(zero_sum, Page::zeroed().checksum(), "deterministic");
        p.put_u64(4096, 1);
        assert_ne!(p.checksum(), zero_sum, "single-bit change detected");
    }

    /// Pins the definition: the sums are written into `MANIFEST` files, so
    /// changing them is a format change.
    #[test]
    fn checksum_known_answers() {
        assert_eq!(checksum(b""), 0xe05b_1c13_9f62_e007);
        assert_eq!(checksum(b"a"), 0x3733_2296_b43f_b234);
        assert_eq!(Page::zeroed().checksum(), 0xd90a_3f26_435a_a281);
    }

    #[test]
    fn prefix_lengths_give_distinct_sums() {
        let data: Vec<u8> = (0..70u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        let mut sums: Vec<u64> = (0..=data.len()).map(|n| checksum(&data[..n])).collect();
        sums.sort_unstable();
        sums.dedup();
        assert_eq!(sums.len(), data.len() + 1);
        // Zero bytes pad the tail word, so the length must tell them apart.
        let zeros = [0u8; 70];
        let mut sums: Vec<u64> = (0..=zeros.len()).map(|n| checksum(&zeros[..n])).collect();
        sums.sort_unstable();
        sums.dedup();
        assert_eq!(sums.len(), zeros.len() + 1);
    }

    #[test]
    fn every_single_byte_flip_changes_the_sum() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xc0ffee);
        let mut p = Page::zeroed();
        for b in p.bytes_mut().iter_mut() {
            *b = rng.gen();
        }
        let base = p.checksum();
        for pos in 0..PAGE_SIZE {
            for xor in [0x01u8, 0x80, 0xff] {
                p.bytes_mut()[pos] ^= xor;
                assert_ne!(p.checksum(), base, "flip {xor:#04x} at byte {pos} undetected");
                p.bytes_mut()[pos] ^= xor;
            }
        }
        assert_eq!(p.checksum(), base);
    }

    #[test]
    fn swapping_words_across_lanes_changes_the_sum() {
        let mut p = Page::zeroed();
        p.put_u64(0, 0x1111);
        p.put_u64(8, 0x2222);
        let base = p.checksum();
        // Words 0 and 1 feed lanes 0 and 1 of the same round.
        p.put_u64(0, 0x2222);
        p.put_u64(8, 0x1111);
        assert_ne!(p.checksum(), base);
        // Words in different lanes and different rounds (0 and 1021).
        let mut q = Page::zeroed();
        q.put_u64(0, 7);
        let base = q.checksum();
        q.put_u64(0, 0);
        q.put_u64(1021 * 8, 7);
        assert_ne!(q.checksum(), base);
    }

    #[test]
    fn streamed_sum_equals_one_shot_for_any_split() {
        let data: Vec<u8> = (0..3 * PAGE_SIZE + 7).map(|i| (i * 131 % 251) as u8).collect();
        for len in [0, 1, 31, 32, 33, 8192 * 3 + 7] {
            let want = checksum(&data[..len]);
            for step in [1, 7, 32, 33, 4096] {
                let mut c = Checksum::new();
                for part in data[..len].chunks(step) {
                    c.update(part);
                }
                assert_eq!(c.finish(), want, "len {len}, step {step}");
            }
        }
    }

    #[test]
    fn last_valid_offsets() {
        let mut p = Page::zeroed();
        p.put_u64(PAGE_SIZE - 8, 9);
        assert_eq!(p.get_u64(PAGE_SIZE - 8), 9);
        assert_eq!(PageId(3).byte_offset(), 3 * PAGE_SIZE as u64);
    }
}
