//! CRC-32 and checksummed page-frame streams for on-disk formats.
//!
//! The persistence formats in this workspace (`dsi-signature`'s index file,
//! the service's update journal and checkpoints) must *detect* corruption
//! rather than deserialize garbage. This module provides the two pieces
//! they share:
//!
//! * [`crc32`] — the IEEE CRC-32 (the zip/PNG polynomial, reflected
//!   `0xEDB88320`), implemented here because the build is fully offline.
//!   CRC-32 detects **all** single-bit flips and all burst errors up to 32
//!   bits, which is what the corruption fuzz tests rely on.
//! * [`FrameWriter`]/[`FrameReader`] — an adapter pair that chops a byte
//!   stream into page-sized frames, each prefixed with `[len: u32 LE]`
//!   `[crc32(payload): u32 LE]`. Truncating the stream anywhere yields a
//!   clean `UnexpectedEof`; flipping any bit yields `InvalidData` — never a
//!   silently wrong payload.
//!
//! Frames are at most [`PAGE_SIZE`] bytes of payload, so "per-frame
//! checksum" is the disk model's per-page checksum.
//!
//! # Slicing-by-16
//!
//! Every buffer miss on a file-backed store verifies its page, so this
//! kernel sits on the physical read path. The classic one-table loop
//! makes one dependent table load per byte: about 14 µs per 4 KiB page,
//! against ~0.5 µs for the `pread` of a page-cache-resident page, so a
//! page fault cost its checksum, not its read. [`crc32`] therefore folds
//! 16 bytes per step through sixteen 256-entry tables built at compile
//! time (16 KiB): the sixteen loads of a step are independent, and only
//! the xor chain into the next step is serial. A tail of fewer than 16
//! bytes takes the bytewise step. About 2.7 µs per page; the output is
//! bit-identical (the root test `tests/persistence_and_cnn.rs` pins it
//! against the bytewise loop). Hardware folding (PCLMULQDQ) would need
//! `unsafe` and a per-architecture path, and is not used.

use std::io::{self, Read, Write};

use crate::layout::PAGE_SIZE;

/// Largest payload of a single frame (one disk page).
pub const MAX_FRAME: usize = PAGE_SIZE;

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 tables: `CRC_TABLES[0]` is the classic bytewise table,
/// and `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so sixteen lookups fold sixteen input bytes at once.
static CRC_TABLES: [[u32; 256]; 16] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// IEEE CRC-32 of `bytes` (polynomial `0xEDB88320`, reflected, init and
/// xor-out `0xFFFFFFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let b: &[u8; 16] = block.try_into().expect("chunks_exact yields 16 bytes");
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Buffers written bytes and emits them as checksummed frames of at most
/// [`MAX_FRAME`] payload bytes.
///
/// Call [`finish`](Self::finish) (or at least `flush`) before dropping;
/// otherwise buffered bytes are lost.
#[derive(Debug)]
pub struct FrameWriter<W: Write> {
    inner: W,
    buf: Vec<u8>,
}

impl<W: Write> FrameWriter<W> {
    /// Wrap `inner` in a frame stream.
    pub fn new(inner: W) -> Self {
        FrameWriter {
            inner,
            buf: Vec::with_capacity(MAX_FRAME),
        }
    }

    fn emit_frame(&mut self) -> io::Result<()> {
        debug_assert!(!self.buf.is_empty() && self.buf.len() <= MAX_FRAME);
        let len = self.buf.len() as u32;
        self.inner.write_all(&len.to_le_bytes())?;
        self.inner.write_all(&crc32(&self.buf).to_le_bytes())?;
        self.inner.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }

    /// Emit any buffered bytes as a final frame, flush, and return the
    /// inner writer.
    pub fn finish(mut self) -> io::Result<W> {
        if !self.buf.is_empty() {
            self.emit_frame()?;
        }
        self.inner.flush()?;
        Ok(self.inner)
    }
}

impl<W: Write> Write for FrameWriter<W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let mut rest = data;
        while !rest.is_empty() {
            let room = MAX_FRAME - self.buf.len();
            let take = room.min(rest.len());
            self.buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buf.len() == MAX_FRAME {
                self.emit_frame()?;
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.emit_frame()?;
        }
        self.inner.flush()
    }
}

/// Reads a stream produced by [`FrameWriter`], verifying each frame's
/// length and checksum before handing out its payload.
///
/// Errors: a truncated header or payload yields
/// [`io::ErrorKind::UnexpectedEof`]; an out-of-range length or checksum
/// mismatch yields [`io::ErrorKind::InvalidData`]. A stream ending exactly
/// at a frame boundary is ordinary EOF (`read` returns 0).
#[derive(Debug)]
pub struct FrameReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
    pos: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wrap `inner`, which must position at the start of a frame.
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            buf: Vec::with_capacity(MAX_FRAME),
            pos: 0,
        }
    }

    /// Load the next frame into `buf`. Returns `false` on clean EOF.
    fn refill(&mut self) -> io::Result<bool> {
        let mut header = [0u8; 8];
        let mut got = 0;
        while got < header.len() {
            match self.inner.read(&mut header[got..]) {
                Ok(0) => {
                    if got == 0 {
                        return Ok(false); // clean EOF at a frame boundary
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "truncated frame header",
                    ));
                }
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if len == 0 || len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} out of range 1..={MAX_FRAME}"),
            ));
        }
        self.buf.resize(len, 0);
        self.inner.read_exact(&mut self.buf).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                io::Error::new(io::ErrorKind::UnexpectedEof, "truncated frame payload")
            } else {
                e
            }
        })?;
        if crc32(&self.buf) != crc {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame checksum mismatch",
            ));
        }
        self.pos = 0;
        Ok(true)
    }
}

impl<R: Read> Read for FrameReader<R> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        if self.pos == self.buf.len() && !self.refill()? {
            return Ok(0);
        }
        let take = (self.buf.len() - self.pos).min(out.len());
        out[..take].copy_from_slice(&self.buf[self.pos..self.pos + take]);
        self.pos += take;
        Ok(take)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_catches_every_single_bit_flip() {
        let data = b"signature index page payload".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at {byte}:{bit} undetected");
            }
        }
    }

    fn frame_roundtrip(payload: &[u8]) -> Vec<u8> {
        let mut w = FrameWriter::new(Vec::new());
        w.write_all(payload).unwrap();
        w.finish().unwrap()
    }

    #[test]
    fn roundtrip_various_sizes() {
        for size in [
            0usize,
            1,
            7,
            MAX_FRAME - 1,
            MAX_FRAME,
            MAX_FRAME + 1,
            3 * MAX_FRAME + 17,
        ] {
            let payload: Vec<u8> = (0..size).map(|i| (i * 31 % 251) as u8).collect();
            let encoded = frame_roundtrip(&payload);
            let mut back = Vec::new();
            FrameReader::new(&encoded[..])
                .read_to_end(&mut back)
                .unwrap();
            assert_eq!(back, payload, "size {size}");
        }
    }

    #[test]
    fn truncation_anywhere_is_an_error_never_a_silent_short_read() {
        let payload: Vec<u8> = (0..MAX_FRAME + 100).map(|i| i as u8).collect();
        let encoded = frame_roundtrip(&payload);
        for cut in 0..encoded.len() {
            let mut back = Vec::new();
            let _ = FrameReader::new(&encoded[..cut]).read_to_end(&mut back);
            // A truncated stream must never yield the complete payload.
            assert!(back.len() < payload.len(), "cut {cut}");
        }
    }

    #[test]
    fn bit_flip_anywhere_is_detected() {
        let payload: Vec<u8> = (0..200).map(|i| (i * 7) as u8).collect();
        let encoded = frame_roundtrip(&payload);
        for byte in 0..encoded.len() {
            let mut bad = encoded.clone();
            bad[byte] ^= 0x10;
            let mut back = Vec::new();
            let res = FrameReader::new(&bad[..]).read_to_end(&mut back);
            // Either an explicit error, or (for a length-field flip that
            // shrinks the frame) the payload must not come back intact.
            if res.is_ok() {
                assert_ne!(back, payload, "flip at byte {byte} silently served");
            }
        }
    }

    #[test]
    fn clean_eof_at_frame_boundary() {
        let encoded = frame_roundtrip(b"hello");
        let mut r = FrameReader::new(&encoded[..]);
        let mut back = Vec::new();
        r.read_to_end(&mut back).unwrap();
        assert_eq!(back, b"hello");
        // Subsequent reads keep returning 0.
        let mut buf = [0u8; 4];
        assert_eq!(r.read(&mut buf).unwrap(), 0);
    }
}
