//! File-backed page storage: the physical half of the disk model.
//!
//! A [`PageFile`] materialises a store's page image as a real file so the
//! buffer pool's "disk page access" metric becomes an actual `pread` (or an
//! mmap copy) of checksummed 4 KiB pages, instead of pure accounting:
//!
//! * **Format** — a header page (magic, page count, per-page CRC-32 table,
//!   zero-padded to a [`PAGE_SIZE`] boundary) followed by the raw page
//!   image. Open checks the header against the file (its length must be
//!   exactly what the page count implies, the reserved word and padding
//!   zero) and loads the CRC table; every physical read verifies each
//!   page it returns, so real corruption surfaces as
//!   [`StorageError::Corrupted`] exactly like the injected kind.
//! * **Batched reads** — [`read_run`](PageFile::read_run) fetches a
//!   contiguous run of pages with **one** `pread`-style syscall
//!   (`FileExt::read_exact_at`), which is what
//!   `BufferPool::try_read_batch` coalesces adjacent prefetches into.
//! * **mmap mode** — behind the default-on `mmap` cargo feature the whole
//!   file can be mapped read-only (raw `mmap(2)`, no extra crates) and
//!   runs become `memcpy`s from the mapping; with the feature disabled,
//!   mmap mode silently degrades to `pread`.
//!
//! Fault *injection* stays in the buffer pool (the draw happens before the
//! physical read, so mem/file/mmap stores share one deterministic fault
//! schedule); this module only reports *real* IO errors and checksum
//! mismatches.

use std::fs::File;
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::checksum::crc32;
use crate::fault::StorageError;
use crate::layout::{PageId, PAGE_SIZE};

/// File magic: "DSI PaGe File v1".
const MAGIC: &[u8; 8] = b"DSIPGF1\0";

/// Fixed part of the header: magic + num_pages (u32 LE) + reserved (u32).
const HEADER_FIXED: usize = 16;

/// Which physical store a session or service runs its page reads on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StoreMode {
    /// Accounting-only in-memory model (the original behavior).
    #[default]
    Mem,
    /// `pread`-backed [`PageFile`]: every buffer miss is a real syscall.
    File,
    /// Memory-mapped [`PageFile`] (falls back to `pread` when the crate is
    /// built without the `mmap` feature).
    Mmap,
}

impl StoreMode {
    /// Lowercase label (CLI flags, report keys).
    pub fn label(self) -> &'static str {
        match self {
            StoreMode::Mem => "mem",
            StoreMode::File => "file",
            StoreMode::Mmap => "mmap",
        }
    }

    /// Whether this mode reads pages from a real file.
    pub fn is_backed(self) -> bool {
        !matches!(self, StoreMode::Mem)
    }
}

impl FromStr for StoreMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "mem" => Ok(StoreMode::Mem),
            "file" => Ok(StoreMode::File),
            "mmap" => Ok(StoreMode::Mmap),
            other => Err(format!(
                "unknown store mode {other:?} (expected mem|file|mmap)"
            )),
        }
    }
}

/// A read-only page file: checksummed 4 KiB pages behind positioned reads.
#[derive(Debug)]
pub struct PageFile {
    file: File,
    path: PathBuf,
    num_pages: u32,
    /// Per-page CRC-32, loaded from the header at open time.
    crcs: Vec<u32>,
    /// Byte offset of page 0 (header rounded up to a page boundary).
    data_off: u64,
    #[cfg(feature = "mmap")]
    map: Option<map::Mmap>,
}

impl PageFile {
    /// Write `image` (length a multiple of [`PAGE_SIZE`]) as a page file at
    /// `path`, with a per-page CRC-32 table in the header.
    ///
    /// The file is not synced. A page file is a scratch image of state that
    /// lives elsewhere — the service writes one per epoch, unlinks it when
    /// the epoch retires and rebuilds it on recovery, never reading it back
    /// across a restart — so its durability buys nothing. Integrity does
    /// not depend on it: every read checks the page against its CRC.
    pub fn create(path: &Path, image: &[u8]) -> io::Result<()> {
        assert_eq!(
            image.len() % PAGE_SIZE,
            0,
            "page image must be a whole number of pages"
        );
        let num_pages = (image.len() / PAGE_SIZE) as u32;
        let mut header = Vec::with_capacity(HEADER_FIXED + num_pages as usize * 4);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&num_pages.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes()); // reserved
        for page in image.chunks(PAGE_SIZE) {
            header.extend_from_slice(&crc32(page).to_le_bytes());
        }
        let data_off = header.len().div_ceil(PAGE_SIZE) * PAGE_SIZE;
        header.resize(data_off, 0);
        let mut f = File::create(path)?;
        f.write_all(&header)?;
        f.write_all(image)
    }

    /// Open a page file for reading. With `use_mmap` (and the `mmap`
    /// feature compiled in) the file is mapped read-only and reads become
    /// copies from the mapping; otherwise every run is one positioned read.
    ///
    /// A file whose length differs from what its header's page count
    /// implies (truncated, extended, or a flipped count), or whose magic,
    /// reserved word or header padding is damaged, is
    /// [`io::ErrorKind::InvalidData`]; nothing is mapped before that check.
    pub fn open(path: &Path, use_mmap: bool) -> io::Result<PageFile> {
        let file = File::open(path)?;
        let mut fixed = [0u8; HEADER_FIXED];
        file.read_exact_at(&mut fixed, 0)?;
        if &fixed[..8] != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a DSI page file (bad magic)",
            ));
        }
        let num_pages = u32::from_le_bytes(fixed[8..12].try_into().unwrap());
        let reserved = u32::from_le_bytes(fixed[12..16].try_into().unwrap());
        let table_end = HEADER_FIXED as u64 + num_pages as u64 * 4;
        let data_off = table_end.div_ceil(PAGE_SIZE as u64) * PAGE_SIZE as u64;
        let total = data_off + num_pages as u64 * PAGE_SIZE as u64;
        // Check the header against the file before allocating the CRC table
        // or mapping anything: a page count the file cannot hold would
        // otherwise turn into a SIGBUS on the first mapped read past its end.
        if reserved != 0 || file.metadata()?.len() != total {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "page file header does not match the file (truncated or corrupt)",
            ));
        }
        let mut header = vec![0u8; (data_off - HEADER_FIXED as u64) as usize];
        file.read_exact_at(&mut header, HEADER_FIXED as u64)?;
        let (crc_bytes, padding) = header.split_at(num_pages as usize * 4);
        if padding.iter().any(|&b| b != 0) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "page file header padding is not zero",
            ));
        }
        let crcs = crc_bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        #[cfg(feature = "mmap")]
        let map = if use_mmap {
            Some(map::Mmap::map(&file, total as usize)?)
        } else {
            None
        };
        #[cfg(not(feature = "mmap"))]
        let _ = use_mmap; // degrade to pread
        Ok(PageFile {
            file,
            path: path.to_path_buf(),
            num_pages,
            crcs,
            data_off,
            #[cfg(feature = "mmap")]
            map,
        })
    }

    /// Number of data pages in the file.
    pub fn num_pages(&self) -> u32 {
        self.num_pages
    }

    /// Path the file was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether reads are served from an mmap mapping.
    pub fn is_mapped(&self) -> bool {
        #[cfg(feature = "mmap")]
        {
            self.map.is_some()
        }
        #[cfg(not(feature = "mmap"))]
        {
            false
        }
    }

    /// Read the contiguous run of pages starting at `start` into `out`
    /// (length a multiple of [`PAGE_SIZE`]) with **one** physical read,
    /// verifying each page's checksum. An IO error surfaces as
    /// [`StorageError::ReadFailed`] on the run's first page; a checksum
    /// mismatch as [`StorageError::Corrupted`] on the offending page.
    pub fn read_run(&self, start: PageId, out: &mut [u8]) -> Result<(), StorageError> {
        assert_eq!(out.len() % PAGE_SIZE, 0, "run must be whole pages");
        let n = (out.len() / PAGE_SIZE) as u32;
        assert!(
            start + n <= self.num_pages,
            "run {start}..{} past end of file ({} pages)",
            start + n,
            self.num_pages
        );
        self.read_physical(start, out)?;
        for (i, page) in out.chunks_exact(PAGE_SIZE).enumerate() {
            let id = start + i as u32;
            if crc32(page) != self.crcs[id as usize] {
                return Err(StorageError::Corrupted { page: id });
            }
        }
        Ok(())
    }

    /// Read one page (a run of length 1).
    pub fn read_page(&self, page: PageId, out: &mut [u8; PAGE_SIZE]) -> Result<(), StorageError> {
        self.read_run(page, out)
    }

    fn read_physical(&self, start: PageId, out: &mut [u8]) -> Result<(), StorageError> {
        #[cfg(feature = "mmap")]
        if let Some(m) = &self.map {
            let off = self.data_off as usize + start as usize * PAGE_SIZE;
            out.copy_from_slice(&m.as_slice()[off..off + out.len()]);
            return Ok(());
        }
        self.file
            .read_exact_at(out, self.data_off + start as u64 * PAGE_SIZE as u64)
            .map_err(|_| StorageError::ReadFailed { page: start })
    }

    /// A unique scratch path for a page file in the system temp directory.
    /// All DSI page files use the `dsi-pages-*` prefix so test hygiene
    /// checks (and manual cleanup) can find strays.
    pub fn scratch_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("dsi-pages-{}-{tag}-{n}.dsipg", std::process::id()))
    }
}

/// Minimal read-only `mmap(2)` wrapper — no extra crates; libc is already
/// linked by std on every unix target this builds on.
#[cfg(feature = "mmap")]
mod map {
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_SHARED: i32 = 1;

    /// A read-only shared mapping of a whole file.
    pub struct Mmap {
        ptr: *mut u8,
        len: usize,
    }

    impl Mmap {
        pub fn map(file: &File, len: usize) -> io::Result<Mmap> {
            assert!(len > 0, "cannot map an empty file");
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_SHARED,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as usize == usize::MAX {
                return Err(io::Error::last_os_error());
            }
            Ok(Mmap { ptr, len })
        }

        pub fn as_slice(&self) -> &[u8] {
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }

    // The mapping is read-only and owned: safe to share across threads.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl std::fmt::Debug for Mmap {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "Mmap({} bytes)", self.len)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Seek, SeekFrom};

    /// A deterministic multi-page image.
    fn image(pages: usize) -> Vec<u8> {
        (0..pages * PAGE_SIZE)
            .map(|i| ((i * 31 + i / PAGE_SIZE) % 251) as u8)
            .collect()
    }

    /// Create-open-drop around a test body, removing the file afterwards.
    fn with_file(pages: usize, use_mmap: bool, body: impl FnOnce(&PageFile, &[u8])) {
        let path = PageFile::scratch_path("unit");
        let img = image(pages);
        PageFile::create(&path, &img).unwrap();
        let pf = PageFile::open(&path, use_mmap).unwrap();
        body(&pf, &img);
        drop(pf);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn roundtrip_single_pages() {
        with_file(5, false, |pf, img| {
            assert_eq!(pf.num_pages(), 5);
            let mut buf = [0u8; PAGE_SIZE];
            for p in 0..5u32 {
                pf.read_page(p, &mut buf).unwrap();
                assert_eq!(
                    &buf[..],
                    &img[p as usize * PAGE_SIZE..][..PAGE_SIZE],
                    "page {p}"
                );
            }
        });
    }

    #[test]
    fn run_read_equals_page_reads() {
        with_file(8, false, |pf, img| {
            let mut run = vec![0u8; 4 * PAGE_SIZE];
            pf.read_run(2, &mut run).unwrap();
            assert_eq!(&run[..], &img[2 * PAGE_SIZE..6 * PAGE_SIZE]);
        });
    }

    #[cfg(feature = "mmap")]
    #[test]
    fn mmap_mode_serves_identical_bytes() {
        with_file(6, true, |pf, img| {
            assert!(pf.is_mapped());
            let mut run = vec![0u8; 6 * PAGE_SIZE];
            pf.read_run(0, &mut run).unwrap();
            assert_eq!(&run[..], img);
        });
    }

    #[test]
    fn real_corruption_is_detected_per_page() {
        let path = PageFile::scratch_path("corrupt");
        PageFile::create(&path, &image(4)).unwrap();
        // Flip one byte in the middle of page 2, past the header pages.
        let mut f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        let data_off = {
            let pf = PageFile::open(&path, false).unwrap();
            // Page 0 reads fine before the flip.
            let mut buf = [0u8; PAGE_SIZE];
            pf.read_page(0, &mut buf).unwrap();
            pf.data_off
        };
        f.seek(SeekFrom::Start(data_off + 2 * PAGE_SIZE as u64 + 100))
            .unwrap();
        let mut b = [0u8; 1];
        f.read_exact(&mut b).unwrap();
        f.seek(SeekFrom::Start(data_off + 2 * PAGE_SIZE as u64 + 100))
            .unwrap();
        f.write_all(&[b[0] ^ 0xFF]).unwrap();
        f.sync_all().unwrap();

        let pf = PageFile::open(&path, false).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        assert_eq!(pf.read_page(1, &mut buf), Ok(()));
        assert_eq!(
            pf.read_page(2, &mut buf),
            Err(StorageError::Corrupted { page: 2 })
        );
        // A run covering the bad page reports the offending page id.
        let mut run = vec![0u8; 3 * PAGE_SIZE];
        assert_eq!(
            pf.read_run(1, &mut run),
            Err(StorageError::Corrupted { page: 2 })
        );
        drop(pf);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_rejected_at_open() {
        let path = PageFile::scratch_path("magic");
        std::fs::write(&path, vec![0u8; PAGE_SIZE]).unwrap();
        let err = PageFile::open(&path, false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn store_mode_parses_and_labels() {
        assert_eq!("mem".parse::<StoreMode>(), Ok(StoreMode::Mem));
        assert_eq!("file".parse::<StoreMode>(), Ok(StoreMode::File));
        assert_eq!("mmap".parse::<StoreMode>(), Ok(StoreMode::Mmap));
        assert!("disk".parse::<StoreMode>().is_err());
        assert_eq!(StoreMode::File.label(), "file");
        assert!(!StoreMode::Mem.is_backed());
        assert!(StoreMode::Mmap.is_backed());
    }
}
