//! The **distance signature** index of Hu, Lee & Lee, *Distance Indexing on
//! Road Networks*, VLDB 2006 — a general-purpose index over the network
//! distances between nodes and objects, "a counterpart of the R-tree in
//! SNDB".
//!
//! At every node `n` the index stores, for each object `i`, a *categorical*
//! distance value — the exact distance `d(n, i)` discretized into a sequence
//! of exponentially widening categories — plus a *backtracking link*: the
//! adjacency slot of the next node from `n` on the shortest path to `i`
//! (§3.1). Signatures give coarse information about remote objects and fine
//! information about nearby ones, matching the locality of spatial queries,
//! while the links make exact distances recoverable by guided backtracking.
//!
//! Crate layout, mirroring the paper:
//!
//! | Paper | Module |
//! |---|---|
//! | §3.1 storage schema | [`index`] |
//! | §3.2 retrieval / comparison / sorting | [`ops`] |
//! | §4 range, kNN (incl. paths), aggregation, ε-join, continuous kNN | [`query`] |
//! | §5.1 spectrum partition + optimum | [`category`], [`analysis`] |
//! | §5.2 construction & encoding | [`index`], [`encode`], [`bits`] |
//! | §5.3 compression (both flag layouts) | [`compress`] |
//! | §5.4 updates | [`update`] |
//! | §7 future work: cross-node compression | [`cross`] |
//! | (engineering) binary persistence | [`persist`] |

pub mod analysis;
pub mod bits;
pub mod category;
pub mod compress;
pub mod cross;
pub mod encode;
pub mod index;
pub mod ops;
pub mod persist;
pub mod query;
pub mod skip;
pub mod update;

pub use category::{CategoryPartition, DistRange};
pub use cross::CrossNodeIndex;
pub use index::{SignatureBuildWorkspace, SignatureConfig, SignatureIndex, SizeReport};
pub use ops::{OpResult, OpStats, Session, SessionState};
pub use query::cnn::{merge_segments, CnnSegment};
pub use query::knn::{KnnResult, KnnType};
pub use skip::{EntryAnchor, SkipDirectory};
pub use update::SignatureMaintainer;
