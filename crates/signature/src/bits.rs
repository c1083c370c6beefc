//! Bit-level I/O for signature blobs.
//!
//! Signatures are variable-length encoded (§5.2), so nodes' signatures are
//! stored as packed bit strings and decoded sequentially.

/// Append-only bit buffer, least-significant-bit first within each word.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitWriter {
    words: Vec<u64>,
    len: usize,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a single bit.
    #[inline]
    pub fn push_bit(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Append the `n` low bits of `value`, LSB first. `n ≤ 64`.
    pub fn push_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        debug_assert!(n == 64 || value < (1u64 << n));
        for i in 0..n {
            self.push_bit(value >> i & 1 == 1);
        }
    }

    /// Finish into an immutable bit string.
    pub fn finish(self) -> BitBox {
        BitBox {
            words: self.words.into_boxed_slice(),
            len: self.len,
        }
    }
}

/// An immutable packed bit string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitBox {
    words: Box<[u64]>,
    len: usize,
}

impl BitBox {
    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size in whole bytes when stored on disk.
    pub fn byte_len(&self) -> usize {
        self.len.div_ceil(8)
    }

    /// Sequential reader from the start.
    pub fn reader(&self) -> BitReader<'_> {
        BitReader { bits: self, pos: 0 }
    }

    /// Sequential reader starting at absolute bit offset `pos` — random
    /// access for skip-directory decoding, where `pos` is a recorded entry
    /// boundary.
    ///
    /// # Panics
    /// If `pos` lies past the end of the buffer.
    pub fn reader_at(&self, pos: usize) -> BitReader<'_> {
        assert!(pos <= self.len, "seek past end of bit string");
        BitReader { bits: self, pos }
    }

    /// Backing words (persistence support).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reassemble from stored parts (persistence support).
    ///
    /// # Panics
    /// If `len` does not fit in `words`.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert!(
            len.div_ceil(64) <= words.len(),
            "length exceeds backing words"
        );
        BitBox {
            words: words.into_boxed_slice(),
            len,
        }
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }
}

/// Sequential bit reader over a [`BitBox`].
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    bits: &'a BitBox,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Read one bit.
    ///
    /// # Panics
    /// Past the end of the buffer (a decoder bug, not a data condition).
    #[inline]
    pub fn read_bit(&mut self) -> bool {
        let b = self.bits.get(self.pos);
        self.pos += 1;
        b
    }

    /// Read `n ≤ 64` bits, LSB first.
    pub fn read_bits(&mut self, n: u32) -> u64 {
        let mut v = 0u64;
        for i in 0..n {
            if self.read_bit() {
                v |= 1u64 << i;
            }
        }
        v
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.bits.len() - self.pos
    }

    /// Absolute bit position of the cursor.
    pub fn pos(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_round_trip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true];
        for &b in &pattern {
            w.push_bit(b);
        }
        let bb = w.finish();
        assert_eq!(bb.len(), 7);
        assert_eq!(bb.byte_len(), 1);
        let mut r = bb.reader();
        for &b in &pattern {
            assert_eq!(r.read_bit(), b);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn multi_bit_round_trip() {
        let mut w = BitWriter::new();
        w.push_bits(0b1011, 4);
        w.push_bits(0x3FF, 10);
        w.push_bits(7, 3);
        let bb = w.finish();
        let mut r = bb.reader();
        assert_eq!(r.read_bits(4), 0b1011);
        assert_eq!(r.read_bits(10), 0x3FF);
        assert_eq!(r.read_bits(3), 7);
    }

    #[test]
    fn crosses_word_boundaries() {
        let mut w = BitWriter::new();
        for i in 0..200u64 {
            w.push_bits(i % 16, 4);
        }
        let bb = w.finish();
        assert_eq!(bb.len(), 800);
        let mut r = bb.reader();
        for i in 0..200u64 {
            assert_eq!(r.read_bits(4), i % 16);
        }
    }

    #[test]
    fn empty_bitbox() {
        let bb = BitWriter::new().finish();
        assert!(bb.is_empty());
        assert_eq!(bb.byte_len(), 0);
        assert_eq!(bb.reader().remaining(), 0);
    }

    // The bounds check is a `debug_assert!` (the read path is hot), so the
    // panic exists only in debug builds.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn reading_past_end_panics() {
        let mut w = BitWriter::new();
        w.push_bit(true);
        let bb = w.finish();
        let mut r = bb.reader();
        r.read_bit();
        r.read_bit();
    }

    #[test]
    fn reader_at_resumes_mid_stream() {
        let mut w = BitWriter::new();
        for i in 0..100u64 {
            w.push_bits(i % 32, 5);
        }
        let bb = w.finish();
        for start in [0usize, 7, 64, 65, 499] {
            let mut seek = bb.reader_at(start);
            let mut seq = bb.reader();
            for _ in 0..start {
                seq.read_bit();
            }
            assert_eq!(seek.pos(), seq.pos());
            while seq.remaining() > 0 {
                assert_eq!(seek.read_bit(), seq.read_bit());
            }
        }
        assert_eq!(bb.reader_at(bb.len()).remaining(), 0);
    }

    #[test]
    #[should_panic]
    fn reader_at_past_end_panics() {
        let mut w = BitWriter::new();
        w.push_bit(true);
        let bb = w.finish();
        let _ = bb.reader_at(2);
    }

    #[test]
    fn sixty_four_bit_values() {
        let mut w = BitWriter::new();
        w.push_bits(u64::MAX, 64);
        w.push_bits(0, 64);
        let bb = w.finish();
        let mut r = bb.reader();
        assert_eq!(r.read_bits(64), u64::MAX);
        assert_eq!(r.read_bits(64), 0);
    }
}
