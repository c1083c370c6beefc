//! A multi-threaded query service over the distance signature index.
//!
//! The paper evaluates the index one query at a time; a deployed distance
//! server sees *traffic* — mixed batches of range / kNN / aggregate / join
//! queries from many clients, interleaved with continuous edge-weight
//! updates. This crate wraps the single-threaded index machinery in a
//! thread-safe façade:
//!
//! * `epoch` — [`EpochIndex`], one immutable index generation as a value:
//!   network, signature index, contraction hierarchy and hub labels,
//!   partitioned indexes, page files and per-epoch session stripes. One
//!   function builds an epoch and one repairs it from the re-weighted
//!   edges (the paper's §5.4 maintenance); neither takes a lock or starts
//!   a thread.
//! * `engine` — [`QueryService`]: query batches pin one epoch end-to-end
//!   on a `std::thread::scope` worker pool pulling queries off a shared
//!   cursor, over lock-striped sessions (buffer pool + decode cache +
//!   counters) and, with [`ServiceConfig::partitions`] > 1, a shard router
//!   over K partitioned signature indexes ([`Backend::Sharded`]). The two
//!   in-memory backends (Dijkstra, hub labels) answer through one private
//!   operator set (`exec`) that writes range, kNN, aggregate and join once
//!   over an object-distance interface.
//! * `ladder` and `admission` — every session stripe, a shard of the single
//!   index or a partition's, runs one retry → degrade → quarantine ladder
//!   whose in-memory rung is the epoch's hub-label oracle; SLO-aware
//!   admission sheds queries that would blow their deadline onto the same
//!   rung.
//! * `publish` — the maintenance shell: the maintenance lock, the catch-up
//!   loop, the crash-safe publish protocol and the atomic swap of the live
//!   epoch, so readers never block behind updates.
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

mod admission;
mod engine;
mod epoch;
mod exec;
pub mod journal;
mod ladder;
mod publish;
pub mod stats;
pub mod workload;

pub use dsi_storage::StoreMode;
pub use engine::{Backend, QueryOutput, QueryService, ServiceConfig};
pub use epoch::{EpochIndex, PublishProfile};
pub use journal::{EdgeUpdate, JournalRecord, UpdateJournal};
pub use publish::{PublishKillPoint, RecoveryReport};
pub use stats::{BatchReport, ClassStats, PartStats};
pub use workload::{
    generate, generate_updates, Query, QueryClass, Skew, WorkloadConfig, WorkloadMix,
};
