//! Horizontal sharding for the distance signature index.
//!
//! The paper's index (Hu, Lee & Lee, VLDB 2006) is a single monolithic
//! structure: one signature per node covering every object, built from one
//! SSSP per object over the whole network. This crate splits that into K
//! **partitions** — connectivity-clustered regions cut from the network —
//! each carrying its own full signature index over its induced subgraph,
//! built independently (and therefore in parallel) on its own page range.
//!
//! Three pieces:
//!
//! * [`Partitioning`] — K connected regions grown round-robin from
//!   CCAM-spread BFS seeds, with boundary nodes and cut edges recorded on
//!   both sides ([`partitioner`]).
//! * [`PartitionedIndex`] — per-region signature indexes over real objects
//!   *plus boundary pseudo-objects*, the boundary overlay graph, and the
//!   boundary→object glue rows captured for free from the build SSSPs
//!   ([`index`]).
//! * the **shard router** ([`router`]) — region-local operators plus
//!   hub-label glue over the boundary overlay (sorted label merges instead
//!   of a frontier Dijkstra) that makes every answer element-wise identical
//!   to the single-index baseline; [`ShardedSessions`] is its standalone
//!   session-pool face, `dsi-service` embeds the same operators in its
//!   lock-striped engine.

pub mod index;
pub mod partitioner;
pub mod router;

pub use index::{PartitionedIndex, Region};
pub use partitioner::{CutEdge, Partitioning};
pub use router::ShardedSessions;
