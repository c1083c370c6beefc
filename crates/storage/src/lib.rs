//! Disk model for the reproduction: pages, connectivity-clustered layout,
//! and an LRU buffer pool with access counters.
//!
//! The paper's primary query-cost metric is the **number of disk page
//! accesses** (§6), with nodes, adjacency lists and signatures stored in
//! 4 KiB pages sorted by the connectivity-clustered access method (CCAM,
//! Shekhar & Liu). This crate reproduces that cost model explicitly:
//!
//! * [`PageLayout`] packs variable-size records into [`PAGE_SIZE`] pages.
//! * [`ccam_order`] produces a connectivity-clustered record order, so
//!   graph-adjacent node records land on the same or nearby pages.
//! * [`BufferPool`] is an LRU page cache; every structure charges its page
//!   reads through it, and experiments read the [`IoStats`] counters.
//! * [`PagedStore`] glues the three together for one on-disk structure.
//! * [`Striped`] lock-stripes shared state (the service's session states)
//!   so a multi-threaded read path can charge page accesses without a
//!   global lock, with per-shard [`IoStats`] merged on demand.
//!
//! Decoded query data stays in ordinary in-memory structures, but the IO
//! cost no longer has to be simulated: [`PageFile`] (module [`pagefile`])
//! materialises a store's page image as a real checksummed file, and a
//! pool with a file attached performs the actual `pread`/mmap read (plus
//! CRC verification) on every buffer miss — including coalesced batched
//! prefetches via [`BufferPool::try_read_batch`], which fetch a run of
//! adjacent pages in one physical call.

pub mod buffer;
pub mod ccam;
pub mod checksum;
pub mod fault;
pub mod layout;
pub mod pagefile;
pub mod striped;

pub use buffer::{BufferPool, IoStats};
pub use ccam::{ccam_order, grow_region};
pub use checksum::{crc32, FrameReader, FrameWriter, MAX_FRAME};
pub use fault::{FaultPlan, StorageError};
pub use layout::{PageId, PageLayout, PagedStore, PAGE_SIZE};
pub use pagefile::{PageFile, StoreMode};
pub use striped::Striped;
