//! Packing variable-size records into fixed-size pages.

use crate::buffer::BufferPool;

/// Disk page size in bytes (the paper sets 4 K, §6).
pub const PAGE_SIZE: usize = 4096;

/// Page identifier, unique across all stores sharing one [`BufferPool`]
/// (stores carve out disjoint id ranges via their `base`).
pub type PageId = u32;

/// Byte addresses of records packed into pages, in a caller-chosen order.
///
/// Packing is greedy: records are laid out back to back; a record that does
/// not fit in the current page's remainder but fits in an empty page starts
/// a new page (no unnecessary page straddling); records larger than a page
/// span the minimal run of contiguous pages.
#[derive(Clone, Debug)]
pub struct PageLayout {
    /// Start byte address per record, in the packing order.
    start: Vec<u64>,
    /// Record lengths in bytes.
    len: Vec<u32>,
    num_pages: u32,
}

impl PageLayout {
    /// Pack records of the given byte `sizes` (zero-size records occupy no
    /// page but still get an address).
    pub fn pack(sizes: &[usize]) -> Self {
        let mut start = Vec::with_capacity(sizes.len());
        let mut len = Vec::with_capacity(sizes.len());
        let mut cursor = 0u64;
        for &s in sizes {
            let rem = PAGE_SIZE as u64 - cursor % PAGE_SIZE as u64; // free bytes in current page
            if s as u64 > rem && s <= PAGE_SIZE {
                // Start the next page instead of straddling.
                cursor += rem;
            }
            start.push(cursor);
            len.push(s as u32);
            cursor += s as u64;
        }
        let num_pages = cursor.div_ceil(PAGE_SIZE as u64) as u32;
        PageLayout {
            start,
            len,
            num_pages,
        }
    }

    /// Pages spanned by record `r` (empty range for zero-size records).
    pub fn pages_of(&self, r: usize) -> std::ops::Range<PageId> {
        let s = self.start[r];
        let l = self.len[r] as u64;
        if l == 0 {
            let p = (s / PAGE_SIZE as u64) as PageId;
            return p..p;
        }
        let first = (s / PAGE_SIZE as u64) as PageId;
        let last = ((s + l - 1) / PAGE_SIZE as u64) as PageId;
        first..last + 1
    }

    /// Byte addresses of record `r` within the packed image
    /// (`start..start + len`).
    pub fn byte_range_of(&self, r: usize) -> std::ops::Range<u64> {
        let s = self.start[r];
        s..s + self.len[r] as u64
    }

    /// Total pages occupied.
    pub fn num_pages(&self) -> u32 {
        self.num_pages
    }

    /// Total payload bytes (excluding page-internal fragmentation).
    pub fn payload_bytes(&self) -> u64 {
        self.len.iter().map(|&l| l as u64).sum()
    }

    /// Total size on disk in bytes (pages × page size).
    pub fn disk_bytes(&self) -> u64 {
        self.num_pages as u64 * PAGE_SIZE as u64
    }
}

/// One on-disk structure: records keyed by an external id (e.g. a node id),
/// stored in a clustered order, occupying a dedicated page-id range starting
/// at `base` so several stores can share one buffer pool.
#[derive(Clone, Debug)]
pub struct PagedStore {
    layout: PageLayout,
    /// `slot_of[id]` — position of external id in the packing order.
    slot_of: Vec<u32>,
    base: PageId,
}

impl PagedStore {
    /// Build a store for records `0..order.len()`, packed in `order`, with
    /// `size_of[id]` bytes per record. `base` is the first page id.
    pub fn new(order: &[usize], size_of: &[usize], base: PageId) -> Self {
        assert_eq!(order.len(), size_of.len());
        let sizes_in_order: Vec<usize> = order.iter().map(|&id| size_of[id]).collect();
        let layout = PageLayout::pack(&sizes_in_order);
        let mut slot_of = vec![u32::MAX; order.len()];
        for (slot, &id) in order.iter().enumerate() {
            assert_eq!(slot_of[id], u32::MAX, "duplicate id in order");
            slot_of[id] = slot as u32;
        }
        assert!(
            slot_of.iter().all(|&s| s != u32::MAX),
            "order must be a permutation of 0..n"
        );
        PagedStore {
            layout,
            slot_of,
            base,
        }
    }

    /// Identity-ordered store (records packed by id).
    pub fn sequential(size_of: &[usize], base: PageId) -> Self {
        let order: Vec<usize> = (0..size_of.len()).collect();
        Self::new(&order, size_of, base)
    }

    /// Pages of record `id`, in the shared page-id space.
    pub fn pages_of(&self, id: usize) -> std::ops::Range<PageId> {
        let r = self.layout.pages_of(self.slot_of[id] as usize);
        (r.start + self.base)..(r.end + self.base)
    }

    /// Byte addresses of record `id` in the shared page-id space's byte
    /// image (page 0 of the space is byte 0) — where a physical page file
    /// materialising this store puts the record.
    pub fn byte_range_of(&self, id: usize) -> std::ops::Range<u64> {
        let r = self.layout.byte_range_of(self.slot_of[id] as usize);
        let off = self.base as u64 * PAGE_SIZE as u64;
        (r.start + off)..(r.end + off)
    }

    /// The page-id range this store occupies (`base..end_page`).
    pub fn page_range(&self) -> std::ops::Range<PageId> {
        self.base..self.end_page()
    }

    /// Charge a read of record `id` to `pool`.
    pub fn read(&self, id: usize, pool: &mut BufferPool) {
        pool.access_range(self.pages_of(id));
    }

    /// Charge a read of record `id` to `pool`; with a fault plan installed
    /// on the pool, the read may fail with a [`StorageError`]
    /// (see [`BufferPool::try_access`]).
    ///
    /// [`StorageError`]: crate::fault::StorageError
    pub fn try_read(
        &self,
        id: usize,
        pool: &mut BufferPool,
    ) -> Result<(), crate::fault::StorageError> {
        pool.try_access_range(self.pages_of(id))
    }

    /// Number of pages this store occupies.
    pub fn num_pages(&self) -> u32 {
        self.layout.num_pages()
    }

    /// Move the store to a new first page id. Partitioned builds construct
    /// each region's store independently at base 0, then rebase them onto
    /// disjoint global page ranges once all region sizes are known.
    pub fn rebase(&mut self, new_base: PageId) {
        self.base = new_base;
    }

    /// First page id after this store — use as the next store's `base`.
    pub fn end_page(&self) -> PageId {
        self.base + self.layout.num_pages()
    }

    /// Total size on disk in bytes.
    pub fn disk_bytes(&self) -> u64 {
        self.layout.disk_bytes()
    }

    /// Total payload bytes.
    pub fn payload_bytes(&self) -> u64 {
        self.layout.payload_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_records_share_a_page() {
        let l = PageLayout::pack(&[100, 100, 100]);
        assert_eq!(l.num_pages(), 1);
        assert_eq!(l.pages_of(0), 0..1);
        assert_eq!(l.pages_of(2), 0..1);
    }

    #[test]
    fn record_avoids_needless_straddle() {
        // 3000 + 2000: the second record does not fit in page 0's remainder
        // but fits in a fresh page, so it must start on page 1.
        let l = PageLayout::pack(&[3000, 2000]);
        assert_eq!(l.pages_of(0), 0..1);
        assert_eq!(l.pages_of(1), 1..2);
        assert_eq!(l.num_pages(), 2);
    }

    #[test]
    fn oversized_record_spans_contiguous_pages() {
        let l = PageLayout::pack(&[10_000]);
        assert_eq!(l.pages_of(0), 0..3);
        assert_eq!(l.num_pages(), 3);
    }

    #[test]
    fn oversized_after_partial_page() {
        let l = PageLayout::pack(&[100, 10_000, 50]);
        // The big record may straddle (it cannot fit any page whole).
        let big = l.pages_of(1);
        assert_eq!(big.len(), 3);
        // The small record lands right after it.
        let small = l.pages_of(2);
        assert_eq!(small.len(), 1);
        assert_eq!(small.start, big.end - 1);
    }

    #[test]
    fn zero_size_records_are_empty_ranges() {
        let l = PageLayout::pack(&[0, 10, 0]);
        assert_eq!(l.pages_of(0).len(), 0);
        assert_eq!(l.pages_of(2).len(), 0);
        assert_eq!(l.num_pages(), 1);
    }

    #[test]
    fn payload_and_disk_bytes() {
        let l = PageLayout::pack(&[3000, 2000]);
        assert_eq!(l.payload_bytes(), 5000);
        assert_eq!(l.disk_bytes(), 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn store_respects_order_and_base() {
        // Records 0,1,2 of 2000 bytes each, packed in order [2,0,1].
        let store = PagedStore::new(&[2, 0, 1], &[2000, 2000, 2000], 10);
        assert_eq!(store.pages_of(2), 10..11);
        assert_eq!(store.pages_of(0), 10..11);
        assert_eq!(store.pages_of(1), 11..12);
        assert_eq!(store.end_page(), 12);
    }

    #[test]
    fn store_read_charges_pool() {
        let store = PagedStore::sequential(&[5000, 100], 0);
        let mut pool = BufferPool::new(4);
        store.read(0, &mut pool);
        assert_eq!(pool.stats().logical, 2); // 5000 bytes = 2 pages
        store.read(1, &mut pool);
        assert_eq!(pool.stats().logical, 3);
    }

    #[test]
    #[should_panic(expected = "duplicate id")]
    fn bad_order_rejected() {
        PagedStore::new(&[0, 0], &[1, 1], 0);
    }
}
