//! Road-network substrate for the distance-signature reproduction.
//!
//! This crate provides everything the index layers above need from a spatial
//! network database (SNDB) model, as in Section 1 of the paper:
//!
//! * [`RoadNetwork`] — a simple undirected weighted graph in CSR form, where
//!   vertices are road junctions with planar coordinates, edges are road
//!   segments, and edge weights are distances along the road.
//! * [`ObjectSet`] — a dataset of objects (hospitals, restaurants, …)
//!   placed on network nodes, with uniform and clustered generators.
//! * Generators for the two network families used in the paper's analysis and
//!   evaluation: the uniform grid of Section 5.1 and the synthetic random
//!   planar network of Section 6.
//! * Shortest-path machinery: Dijkstra (full, bounded, and incremental
//!   expansion) on a pluggable queue substrate — Dial buckets on
//!   small-integer weights, binary heap otherwise ([`queue`]) — with
//!   reusable epoch-stamped state for high-volume callers ([`workspace`]),
//!   multi-source Dijkstra, and per-object shortest-path spanning trees
//!   (the intermediate structures kept for signature maintenance in
//!   Section 5.4).
//!
//! Distances are `u32` ([`Dist`]); edge weights in the paper are integers in
//! `1..=10`, so path lengths stay far below `u32::MAX`.

pub mod dataset;
pub mod dijkstra;
pub mod generate;
pub mod ids;
pub mod io;
pub mod network;
pub mod point;
pub mod queue;
pub mod spanning;
pub mod workspace;

pub use dataset::ObjectSet;
pub use dijkstra::{
    multi_source, multi_source_with, sssp, sssp_bounded, sssp_bounded_into,
    sssp_bounded_with_backend, sssp_into, sssp_with_backend, DijkstraExpansion, MultiSourceResult,
    SsspTree,
};
pub use ids::{Dist, NodeId, ObjectId, INFINITY, NO_NODE};
pub use network::{NetworkBuilder, RoadNetwork};
pub use point::Point;
pub use queue::{BucketQueue, MonotonePq, QueueBackend, MAX_BUCKET_WEIGHT};
pub use spanning::SpanningForest;
pub use workspace::SsspWorkspace;
