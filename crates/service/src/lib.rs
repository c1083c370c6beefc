//! A multi-threaded query service over the distance signature index.
//!
//! The paper evaluates the index one query at a time; a deployed distance
//! server sees *traffic* — mixed batches of range / kNN / aggregate / join
//! queries from many clients, interleaved with continuous edge-weight
//! updates. This crate wraps the single-threaded index machinery in a
//! thread-safe façade built from four pieces:
//!
//! * [`engine`] — [`QueryService`]: a double-buffered epoch index
//!   ([`EpochIndex`] behind `RwLock<Arc<_>>`) where query batches pin one
//!   immutable snapshot end-to-end and maintenance publishes the next
//!   epoch with an atomic swap — readers never block behind updates;
//!   lock-striped per-epoch sessions (buffer pool + decode cache +
//!   counters), a `std::thread::scope` worker pool pulling queries off a
//!   shared cursor, and (with [`ServiceConfig::partitions`] > 1) a shard
//!   router over K partitioned signature indexes ([`Backend::Sharded`]).
//!   Every session stripe — a shard of the single index or a partition's —
//!   runs one retry → degrade → quarantine ladder whose in-memory rung is
//!   the epoch's hub-label oracle, which every epoch holds; the three
//!   in-memory backends (Dijkstra, hierarchy, hub labels) answer through
//!   one private operator set that writes range, kNN, aggregate and join
//!   once over an object-distance interface;
//! * [`journal`] — crash safety for maintenance: a checksummed write-ahead
//!   journal of edge updates and publish-protocol markers
//!   ([`JournalRecord`]) plus atomic full-state checkpoints, replayed by
//!   [`QueryService::recover`] onto exactly one epoch no matter where a
//!   crash cut the publish ([`PublishKillPoint`] instruments every
//!   boundary);
//! * [`workload`] — deterministic batch generation with configurable class
//!   mixes, uniform/Zipfian query-node skew, and seeded edge-update
//!   batches ([`generate_updates`]) for mixed read/write runs;
//! * [`stats`] — per-class latency percentiles (p50/p95/p99) and batch
//!   throughput/IO reporting, including maintenance counters
//!   (`epoch_swaps` / `stale_epoch_reads`).
//!
//! The `workload` binary drives all of it from the command line; the
//! benchmark that measures it is `perfbench/` (see `BENCHMARK.json`).

pub mod engine;
mod exec;
pub mod journal;
pub mod stats;
pub mod workload;

pub use dsi_storage::StoreMode;
pub use engine::{
    Backend, EpochIndex, PublishKillPoint, PublishProfile, QueryOutput, QueryService,
    RecoveryReport, ServiceConfig,
};
pub use journal::{EdgeUpdate, JournalRecord, UpdateJournal};
pub use stats::{BatchReport, ClassStats, PartStats};
pub use workload::{
    generate, generate_updates, Query, QueryClass, Skew, WorkloadConfig, WorkloadMix,
};
