//! Buffer-line helpers shared by the media and the on-PM buffer: the
//! per-byte valid set of a staged line, the split of a byte range at
//! buffer-line boundaries, and the word-wide data-comparison-write count.

use std::ops::Range;

use silo_types::BUF_LINE_BYTES;

/// 64-bit words in a [`LineMask`].
const MASK_WORDS: usize = BUF_LINE_BYTES / 64;

/// Which bytes of one 256 B buffer line are valid: a 256-bit set, bit
/// `i % 64` of word `i / 64` standing for byte `i`.
///
/// # Examples
///
/// ```
/// use silo_pm::LineMask;
///
/// let mut m = LineMask::EMPTY;
/// m.set_range(60, 8);
/// assert!(m.contains(63) && m.contains(64) && !m.contains(68));
/// assert_eq!(m.count(), 8);
/// assert_eq!(m.first(3).count(), 3);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LineMask([u64; MASK_WORDS]);

impl LineMask {
    /// No byte valid.
    pub const EMPTY: LineMask = LineMask([0; MASK_WORDS]);

    /// Marks bytes `off..off + len` valid.
    ///
    /// # Panics
    ///
    /// Panics if the range leaves the line.
    pub fn set_range(&mut self, off: usize, len: usize) {
        let end = off + len;
        assert!(
            end <= BUF_LINE_BYTES,
            "mask range {off}+{len} leaves the line"
        );
        let mut i = off;
        while i < end {
            let (w, lo) = (i / 64, i % 64);
            let hi = (end - w * 64).min(64);
            self.0[w] |= (u64::MAX >> (64 - (hi - lo))) << lo;
            i = w * 64 + hi;
        }
    }

    /// Whether byte `i` is valid.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of valid bytes.
    pub fn count(&self) -> u64 {
        self.0.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// The first `keep` valid bytes only: the persisted prefix of a torn
    /// line program.
    pub fn first(&self, keep: usize) -> LineMask {
        let mut out = LineMask::EMPTY;
        let mut left = keep;
        for (dst, &src) in out.0.iter_mut().zip(&self.0) {
            let mut w = src;
            while w != 0 && left > 0 {
                let low = w & w.wrapping_neg();
                *dst |= low;
                w ^= low;
                left -= 1;
            }
        }
        out
    }

    /// The valid bytes of the 8-byte chunk `c` as a little-endian byte
    /// mask: `0xff` in each valid byte's position.
    #[inline]
    fn chunk_bytes(&self, c: usize) -> u64 {
        BYTE_MASKS[(self.0[c / 8] >> (c % 8 * 8)) as usize & 0xff]
    }
}

/// `BYTE_MASKS[m]` widens the 8 bits of `m` to 8 bytes (`0x00` or `0xff`).
static BYTE_MASKS: [u64; 256] = {
    let mut t = [0u64; 256];
    let mut m = 0;
    while m < 256 {
        let mut b = 0;
        while b < 8 {
            if m >> b & 1 == 1 {
                t[m] |= 0xff << (b * 8);
            }
            b += 1;
        }
        m += 1;
    }
    t
};

/// The little-endian word at 8-byte chunk `c` of `bytes`.
#[inline]
fn chunk(bytes: &[u8], c: usize) -> u64 {
    u64::from_le_bytes(bytes[c * 8..c * 8 + 8].try_into().expect("8 bytes"))
}

/// The bits that differ between `old` and `new` (equal lengths): the
/// data-comparison-write count, 8 bytes per `count_ones` plus a byte tail.
#[inline]
pub(crate) fn changed_bits(old: &[u8], new: &[u8]) -> u64 {
    debug_assert_eq!(old.len(), new.len());
    let whole = new.len() / 8;
    let mut bits: u64 = (0..whole)
        .map(|c| (chunk(old, c) ^ chunk(new, c)).count_ones() as u64)
        .sum();
    for i in whole * 8..new.len() {
        bits += (old[i] ^ new[i]).count_ones() as u64;
    }
    bits
}

/// [`changed_bits`] over a whole buffer line, counting only the bytes in
/// `valid`.
#[inline]
pub(crate) fn changed_bits_masked(
    old: &[u8; BUF_LINE_BYTES],
    new: &[u8; BUF_LINE_BYTES],
    valid: &LineMask,
) -> u64 {
    (0..BUF_LINE_BYTES / 8)
        .map(|c| ((chunk(old, c) ^ chunk(new, c)) & valid.chunk_bytes(c)).count_ones() as u64)
        .sum()
}

/// Copies the bytes of `src` flagged in `valid` into `dst`, 8 at a time.
#[inline]
pub(crate) fn merge_masked(dst: &mut [u8], src: &[u8; BUF_LINE_BYTES], valid: &LineMask) {
    for c in 0..BUF_LINE_BYTES / 8 {
        let m = valid.chunk_bytes(c);
        if m != 0 {
            let merged = chunk(dst, c) & !m | chunk(src, c) & m;
            dst[c * 8..c * 8 + 8].copy_from_slice(&merged.to_le_bytes());
        }
    }
}

/// Splits the `len` bytes at byte address `addr` at buffer-line
/// boundaries: yields each piece's buffer-line index, its offset within
/// that line, and its range within the `len` bytes.
pub(crate) fn buf_line_pieces(
    addr: u64,
    len: usize,
) -> impl Iterator<Item = (u64, usize, Range<usize>)> {
    let mut pos = 0;
    std::iter::from_fn(move || {
        if pos == len {
            return None;
        }
        let cur = addr + pos as u64;
        let off = (cur % BUF_LINE_BYTES as u64) as usize;
        let n = (len - pos).min(BUF_LINE_BYTES - off);
        let piece = (cur / BUF_LINE_BYTES as u64, off, pos..pos + n);
        pos += n;
        Some(piece)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-byte `[bool; 256]` mask the set replaced, kept as the
    /// reference for the bit operations.
    fn bools(m: &LineMask) -> Vec<bool> {
        (0..BUF_LINE_BYTES).map(|i| m.contains(i)).collect()
    }

    #[test]
    fn set_range_matches_a_per_byte_mask() {
        let mut rng = silo_types::SplitMix64::new(0x3a5c);
        for _ in 0..500 {
            let mut m = LineMask::EMPTY;
            let mut want = [false; BUF_LINE_BYTES];
            for _ in 0..3 {
                let off = (rng.next_u64() % BUF_LINE_BYTES as u64) as usize;
                let len = (rng.next_u64() % (BUF_LINE_BYTES - off) as u64 + 1) as usize;
                m.set_range(off, len);
                want[off..off + len].fill(true);
            }
            assert_eq!(bools(&m), want);
            assert_eq!(m.count(), want.iter().filter(|&&v| v).count() as u64);
            let keep = (rng.next_u64() % 300) as usize;
            let mut kept = 0;
            let first: Vec<bool> = want
                .iter()
                .map(|&v| {
                    let k = v && kept < keep;
                    kept += k as usize;
                    k
                })
                .collect();
            assert_eq!(bools(&m.first(keep)), first, "first({keep})");
        }
    }

    #[test]
    fn full_and_empty_ranges() {
        let mut m = LineMask::EMPTY;
        m.set_range(0, 0);
        assert_eq!(m, LineMask::EMPTY);
        m.set_range(0, BUF_LINE_BYTES);
        assert_eq!(m.count(), BUF_LINE_BYTES as u64);
        assert_eq!(m.first(0), LineMask::EMPTY);
        assert_eq!(m.first(1000), m);
    }

    #[test]
    fn merge_masked_copies_exactly_the_valid_bytes() {
        let mut rng = silo_types::SplitMix64::new(0x9e1);
        for _ in 0..200 {
            let mut src = [0u8; BUF_LINE_BYTES];
            let mut dst = [0u8; BUF_LINE_BYTES];
            let mut m = LineMask::EMPTY;
            for i in 0..BUF_LINE_BYTES {
                src[i] = rng.next_u64() as u8;
                dst[i] = rng.next_u64() as u8;
                if rng.next_u64().is_multiple_of(3) {
                    m.set_range(i, 1);
                }
            }
            let mut want = dst;
            for i in 0..BUF_LINE_BYTES {
                if m.contains(i) {
                    want[i] = src[i];
                }
            }
            merge_masked(&mut dst, &src, &m);
            assert_eq!(dst, want);
        }
    }

    #[test]
    fn pieces_split_at_buffer_lines() {
        let got: Vec<_> = buf_line_pieces(250, 270).collect();
        assert_eq!(got, vec![(0, 250, 0..6), (1, 0, 6..262), (2, 0, 262..270)]);
        assert_eq!(buf_line_pieces(512, 0).count(), 0);
        assert_eq!(
            buf_line_pieces(512, 256).collect::<Vec<_>>(),
            vec![(2, 0, 0..256)]
        );
    }
}
