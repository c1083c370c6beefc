//! Contraction-hierarchy distance oracle over [`dsi_graph::RoadNetwork`].
//!
//! The signature index (the paper's contribution) buys IO-efficient range /
//! kNN / CNN processing, but two things stay bounded by flat Dijkstra over
//! the whole network: raw point-to-point distance, and index *construction*,
//! which runs one full SSSP per object (§5.2). A contraction hierarchy
//! (Geisberger et al.; see "Towards Bridging Theory and Practice in Route
//! Planning", arXiv 1304.2576) fixes both:
//!
//! * **Preprocessing** ([`build`]): contract nodes one at a time in
//!   edge-difference order, inserting a shortcut for every neighbor pair
//!   whose shortest path ran through the contracted node and has no witness
//!   avoiding it. The result assigns every node a *rank* and keeps, per
//!   node, only its **upward** arcs (toward higher rank).
//! * **Point-to-point** ([`ContractionHierarchy::p2p`]): a bidirectional
//!   Dijkstra where both sides only climb upward arcs — search spaces are
//!   a few hundred nodes where flat Dijkstra settles the whole network.
//! * **Full SSSP** ([`ContractionHierarchy::sssp_phast`]): PHAST — one tiny
//!   upward search, then a single linear sweep down the ranks with no
//!   priority queue. This is the construction accelerator: per-object
//!   distance vectors for index builds without per-object full Dijkstra.
//! * **Hub labels** ([`labels`]): canonical 2-hop labels built top-down
//!   over the hierarchy's upward arcs — point-to-point becomes one sorted
//!   merge of two small arrays ([`HubLabels::p2p`]); one-to-many becomes
//!   one pass over the source label against a target set's distance-sorted
//!   hub buckets ([`LabelBuckets`]), bounded so it reads only row prefixes
//!   that can still qualify ([`HubLabels::scan_within`] for range-shaped
//!   queries, [`HubLabels::knn`] for the bucket kNN,
//!   [`HubLabels::one_to_many`] for the unbounded case); no graph traversal
//!   at query time at all.
//! * **Repair** ([`ContractionHierarchy::repaired`], then
//!   [`HubLabels::repaired`]): after edge re-weightings, the hierarchy of
//!   the same order and its canonical labels, re-contracting only the nodes
//!   whose witness searches could have seen a change and rebuilding only
//!   the labels whose inputs moved — through the very per-node contraction
//!   step and label loop the builders run, so `build` stays the oracle the
//!   repairs are tested against.
//!
//! Witness searches, upward searches, and the PHAST upward phase all run on
//! [`dsi_graph::SsspWorkspace`] through its external-search API
//! (`begin_external` / `improve` / `pop_settled`), so the epoch-stamped
//! arrays and queue substrates are shared with the flat engine rather than
//! reimplemented.

pub mod build;
pub mod labels;
pub mod phast;
pub mod query;

pub use build::{ChConfig, ContractionHierarchy, UpArc};
pub use labels::{HubLabels, Label, LabelBuckets, LabelRepair};
pub use phast::PhastWorkspace;
pub use query::ChWorkspace;
