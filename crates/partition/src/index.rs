//! Per-partition index construction and the boundary overlay.
//!
//! Each region gets its own [`SignatureIndex`] over the induced subgraph,
//! built with the region's **real** objects plus one *boundary
//! pseudo-object* per boundary node — so the ordinary signature machinery
//! (with its page-access accounting) answers "distance from a query node to
//! each boundary crossing" exactly like any other object distance.
//!
//! Cross-partition exactness rests on two decompositions:
//!
//! * **first exit** — for a query `q` in region `P` and any target `t`,
//!   `d_G(q,t) = min(d_P(q,t), min_{b ∈ ∂P} d_P(q,b) + d_G(b,t))`: the
//!   first boundary node on a true shortest path has an all-interior
//!   prefix, so its region-local distance is already exact.
//! * **last entry** — `d_G(b, host(o))` for a boundary node `b` and object
//!   `o` in region `Q` decomposes over the *last* boundary node `b' ∈ ∂Q`
//!   through which the path enters `Q`: `d_G(b,b') + d_Q(b', host(o))`.
//!
//! The build therefore precomputes, per region, the exact in-region
//! distance rows from every boundary node to every real-object host and to
//! every other boundary node of the same region — read for free off the
//! same SSSPs that fill the region's signatures
//! ([`SignatureIndex::build_serial`]'s capture hook) — and assembles the
//! **boundary overlay**: a graph on all boundary nodes whose edges are the
//! cut edges (original weights) plus, per region, the complete in-region
//! boundary-to-boundary distance rows. Shortest paths in the overlay equal
//! full-graph distances between boundary nodes, which is exactly the
//! remote-hop glue the router's frontier expansion needs.

use crate::partitioner::Partitioning;
use dsi_graph::{Dist, NodeId, ObjectId, ObjectSet, Point, RoadNetwork, INFINITY};
use dsi_hierarchy::HubLabels;

use dsi_signature::{SignatureBuildWorkspace, SignatureConfig, SignatureIndex};
use std::cmp::Reverse;

/// One region's built artifacts: the induced subgraph (region-local node
/// ids), its object set (real hosts first-come, boundary pseudo-objects
/// merged in), and its signature index.
pub struct Region {
    /// Induced subgraph of the region (local node ids = rank in the
    /// region's sorted global node list).
    pub net: RoadNetwork,
    /// Region-local objects: every distinct host node that carries a real
    /// object, a boundary pseudo-object, or both.
    pub objects: ObjectSet,
    /// The region's own signature index over `net` × `objects`.
    pub index: SignatureIndex,
    /// `(local object, global object)` for real objects, ascending local id.
    pub(crate) real_objs: Vec<(ObjectId, ObjectId)>,
    /// `(local object, global boundary index)` for boundary pseudo-objects,
    /// ascending local id (= ascending global boundary index).
    pub(crate) boundary_objs: Vec<(ObjectId, u32)>,
}

impl Region {
    /// Global ids of the real objects hosted in this region, by local rank.
    pub fn real_objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.real_objs.iter().map(|&(_, g)| g)
    }

    /// Number of boundary pseudo-objects.
    pub fn num_boundary(&self) -> usize {
        self.boundary_objs.len()
    }
}

/// The partitioned counterpart of a single [`SignatureIndex`]: K region
/// indexes on disjoint page ranges plus the boundary overlay and the
/// per-region glue rows the cross-partition router consumes.
pub struct PartitionedIndex {
    pub(crate) partitioning: Partitioning,
    pub(crate) parts: Vec<Region>,
    /// Global node id → region-local node id.
    pub(crate) local_node: Vec<u32>,
    /// Global boundary index → global node id (regions concatenated).
    pub(crate) all_boundary: Vec<NodeId>,
    /// Region → first global boundary index (length K+1).
    pub(crate) boundary_base: Vec<usize>,
    /// `[region][boundary rank][real rank]` = exact in-region distance from
    /// that boundary node to that real object's host.
    pub(crate) obj_rows: Vec<Vec<Vec<Dist>>>,
    /// Hub labels over the boundary overlay: the router's cross-partition
    /// glue. A boundary-to-boundary distance is one sorted label merge
    /// instead of a frontier Dijkstra over the overlay.
    pub(crate) glue: HubLabels,
    /// The glue labels inverted hub-first (see [`GlueBuckets`]): the
    /// router's multi-source expansion only touches buckets of hubs its
    /// seeds reach, instead of re-reading every boundary node's label.
    pub(crate) glue_buckets: GlueBuckets,
    pub(crate) num_objects: usize,
}

/// Inverted glue labels: for each hub, every boundary node whose label
/// contains it, rows ascending by distance so a bounded scan stops at the
/// first row past its budget. A pure function of the labels.
pub(crate) struct GlueBuckets {
    /// Hub → first row (length `num_boundary + 1`).
    index: Vec<u32>,
    /// `(boundary index, dist)` rows grouped by hub, ascending `(dist, b)`.
    rows: Vec<(u32, Dist)>,
}

impl GlueBuckets {
    pub(crate) fn invert(glue: &HubLabels) -> GlueBuckets {
        let nb = glue.num_nodes();
        let mut buckets: Vec<Vec<(u32, Dist)>> = vec![Vec::new(); nb];
        for b in 0..nb {
            for (h, d) in glue.label_of(NodeId(b as u32)) {
                buckets[h.index()].push((b as u32, d));
            }
        }
        let mut index = Vec::with_capacity(nb + 1);
        index.push(0u32);
        let mut rows = Vec::with_capacity(glue.num_entries());
        for bucket in &mut buckets {
            bucket.sort_unstable_by_key(|&(b, d)| (d, b));
            rows.extend_from_slice(bucket);
            index.push(rows.len() as u32);
        }
        GlueBuckets { index, rows }
    }

    /// The `(boundary index, dist)` rows of hub `h`, ascending by dist.
    pub(crate) fn rows_of(&self, h: usize) -> &[(u32, Dist)] {
        &self.rows[self.index[h] as usize..self.index[h + 1] as usize]
    }

    /// Number of rows in hub `h`'s bucket.
    pub(crate) fn len_of(&self, h: usize) -> usize {
        (self.index[h + 1] - self.index[h]) as usize
    }

    /// Total rows across all buckets (= total label entries).
    pub(crate) fn total_rows(&self) -> usize {
        self.rows.len()
    }
}

/// Per-region artifacts a build worker hands back.
struct BuiltPart {
    region: Region,
    /// Captured exact distance rows, one per boundary pseudo-object (region
    /// boundary order), each `region.net.num_nodes()` long.
    rows: Vec<Vec<Dist>>,
}

impl PartitionedIndex {
    /// Partition `net` into `k` regions and build every region index, in
    /// parallel with `std::thread::scope` (one build worker per region up
    /// to the available parallelism, each reusing a single
    /// [`SignatureBuildWorkspace`] across all regions it constructs).
    pub fn build(
        net: &RoadNetwork,
        objects: &ObjectSet,
        config: &SignatureConfig,
        k: usize,
    ) -> Self {
        Self::build_from(net, objects, config, Partitioning::new(net, k))
    }

    /// [`build`](Self::build) over an existing partitioning.
    pub fn build_from(
        net: &RoadNetwork,
        objects: &ObjectSet,
        config: &SignatureConfig,
        partitioning: Partitioning,
    ) -> Self {
        assert!(!objects.is_empty(), "dataset must be non-empty");
        let k = partitioning.num_parts();
        let shape = Shape::of(net, &partitioning);

        let num_workers = if k == 1 {
            1
        } else {
            std::thread::available_parallelism()
                .map_or(1, |p| p.get())
                .min(k)
                .min(8)
        };
        let mut slots: Vec<Option<BuiltPart>> = (0..k).map(|_| None).collect();
        if num_workers <= 1 {
            let mut ws = SignatureBuildWorkspace::default();
            for (p, slot) in slots.iter_mut().enumerate() {
                *slot = Some(build_part(
                    net,
                    objects,
                    config,
                    &partitioning,
                    &shape,
                    p,
                    &mut ws,
                ));
            }
        } else {
            let next = std::sync::atomic::AtomicUsize::new(0);
            std::thread::scope(|s| {
                let (tx, rx) = std::sync::mpsc::channel::<(usize, BuiltPart)>();
                for _ in 0..num_workers {
                    let tx = tx.clone();
                    let next = &next;
                    let (partitioning, shape) = (&partitioning, &shape);
                    s.spawn(move || {
                        // One workspace per worker for its whole run, not
                        // one per region.
                        let mut ws = SignatureBuildWorkspace::default();
                        loop {
                            let p = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if p >= k {
                                break;
                            }
                            let built =
                                build_part(net, objects, config, partitioning, shape, p, &mut ws);
                            tx.send((p, built)).expect("collector alive");
                        }
                    });
                }
                drop(tx);
                for (p, built) in rx {
                    slots[p] = Some(built);
                }
            });
        }

        let mut parts = Vec::with_capacity(k);
        let mut all_rows = Vec::with_capacity(k);
        for slot in slots {
            let built = slot.expect("all regions built");
            parts.push(built.region);
            all_rows.push(built.rows);
        }

        // Partition-aware packing: rebase each region's store onto a
        // disjoint range of the shared page-id space, in region order.
        let mut base = 0;
        for part in &mut parts {
            part.index.rebase_store(base);
            base = part.index.store().end_page();
        }

        Self::assemble(objects, partitioning, shape, parts, &all_rows)
    }

    fn assemble(
        objects: &ObjectSet,
        partitioning: Partitioning,
        shape: Shape,
        parts: Vec<Region>,
        all_rows: &[Vec<Vec<Dist>>],
    ) -> Self {
        let k = partitioning.num_parts();
        let num_boundary = shape.all_boundary.len();

        // Overlay: per-region complete boundary-to-boundary rows (exact
        // in-region distances) + every cut edge at its original weight.
        let mut overlay: Vec<Vec<(u32, Dist)>> = vec![Vec::new(); num_boundary];
        let mut obj_rows: Vec<Vec<Vec<Dist>>> = Vec::with_capacity(k);
        for p in 0..k {
            let bl = partitioning.boundary(p);
            let b0 = shape.boundary_base[p];
            let rows = &all_rows[p];
            debug_assert_eq!(rows.len(), bl.len());
            for (i, row) in rows.iter().enumerate() {
                for (j, &bj) in bl.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let d = row[shape.local_node[bj.index()] as usize];
                    if d != INFINITY {
                        overlay[b0 + i].push(((b0 + j) as u32, d));
                    }
                }
            }
            for cut in partitioning.cuts(p) {
                let from = shape.bidx_of[cut.local.index()];
                let to = shape.bidx_of[cut.remote.index()];
                debug_assert!(from != u32::MAX && to != u32::MAX);
                overlay[from as usize].push((to, cut.weight));
            }
            obj_rows.push(
                rows.iter()
                    .map(|row| {
                        parts[p]
                            .real_objs
                            .iter()
                            .map(|&(lo, _)| row[parts[p].objects.node_of(lo).index()])
                            .collect()
                    })
                    .collect(),
            );
        }

        let placed: usize = parts.iter().map(|r| r.real_objs.len()).sum();
        assert_eq!(placed, objects.len(), "every object in exactly one region");

        let glue = build_glue(&overlay);
        let glue_buckets = GlueBuckets::invert(&glue);

        PartitionedIndex {
            partitioning,
            parts,
            local_node: shape.local_node,
            all_boundary: shape.all_boundary,
            boundary_base: shape.boundary_base,
            obj_rows,
            glue,
            glue_buckets,
            num_objects: objects.len(),
        }
    }

    /// Number of regions K.
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// Region owning global node `n`.
    pub fn part_of(&self, n: NodeId) -> usize {
        self.partitioning.part_of(n)
    }

    /// Region `p`'s built artifacts.
    pub fn part(&self, p: usize) -> &Region {
        &self.parts[p]
    }

    /// The underlying partitioning.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// Total boundary nodes across all regions.
    pub fn num_boundary(&self) -> usize {
        self.all_boundary.len()
    }

    /// Number of global objects.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Total pages across all region stores (disjoint ranges).
    pub fn total_pages(&self) -> u32 {
        self.parts.last().map_or(0, |r| r.index.store().end_page())
    }

    /// Region-local id of global node `n`.
    pub fn local_node(&self, n: NodeId) -> NodeId {
        NodeId(self.local_node[n.index()])
    }

    /// The boundary-overlay hub labels the router glues with.
    pub fn glue_labels(&self) -> &HubLabels {
        &self.glue
    }
}

/// Build the router's glue labels: pruned-landmark labels over the
/// boundary overlay (node ids = global boundary indexes). Shortest paths
/// in the overlay equal full-graph distances between boundary nodes, so
/// a label merge answers `d_G(b, b')` exactly. The overlay's per-region
/// cliques give nodes degrees in the hundreds — far past the road
/// network's slot width, and dense enough that contraction drowns in
/// witness searches — so the labels are built by pruned Dijkstras
/// ([`HubLabels::build_pruned`]), which density only costs edge scans.
/// Roots are ordered by descending degree (most-connected boundary nodes
/// make the best hubs), ties by id. Deterministic — derived from the
/// overlay alone.
fn build_glue(overlay: &[Vec<(u32, Dist)>]) -> HubLabels {
    let adj: Vec<Vec<(NodeId, Dist)>> = overlay
        .iter()
        .map(|a| a.iter().map(|&(to, w)| (NodeId(to), w)).collect())
        .collect();
    let mut order: Vec<NodeId> = (0..adj.len() as u32).map(NodeId).collect();
    order.sort_unstable_by_key(|&v| (Reverse(adj[v.index()].len()), v.0));
    HubLabels::build_pruned(&adj, &order)
}

/// Shared read-only lookup tables every build worker needs.
struct Shape {
    /// Global node → region-local node id.
    local_node: Vec<u32>,
    /// Global node → global boundary index (`u32::MAX` if interior).
    bidx_of: Vec<u32>,
    all_boundary: Vec<NodeId>,
    boundary_base: Vec<usize>,
}

impl Shape {
    fn of(net: &RoadNetwork, partitioning: &Partitioning) -> Shape {
        let n = net.num_nodes();
        let k = partitioning.num_parts();
        let mut all_boundary = Vec::new();
        let mut boundary_base = Vec::with_capacity(k + 1);
        for p in 0..k {
            boundary_base.push(all_boundary.len());
            all_boundary.extend_from_slice(partitioning.boundary(p));
        }
        boundary_base.push(all_boundary.len());
        let mut bidx_of = vec![u32::MAX; n];
        for (i, &b) in all_boundary.iter().enumerate() {
            bidx_of[b.index()] = i as u32;
        }
        let mut local_node = vec![u32::MAX; n];
        for p in 0..k {
            for (li, &g) in partitioning.nodes(p).iter().enumerate() {
                local_node[g.index()] = li as u32;
            }
        }
        Shape {
            local_node,
            bidx_of,
            all_boundary,
            boundary_base,
        }
    }
}

/// Build one region: induced subgraph, merged object set (real ∪ boundary
/// pseudos), signature index, and the captured boundary distance rows.
fn build_part(
    net: &RoadNetwork,
    objects: &ObjectSet,
    config: &SignatureConfig,
    partitioning: &Partitioning,
    shape: &Shape,
    p: usize,
    ws: &mut SignatureBuildWorkspace,
) -> BuiltPart {
    let globals = partitioning.nodes(p);

    let coords: Vec<Point> = globals.iter().map(|&g| net.coord(g)).collect();
    let adj: Vec<Vec<(NodeId, Dist)>> = globals
        .iter()
        .map(|&g| {
            net.neighbors(g)
                .filter(|&(_, v, w)| w != INFINITY && partitioning.part_of(v) == p)
                .map(|(_, v, w)| (NodeId(shape.local_node[v.index()]), w))
                .collect()
        })
        .collect();
    let subnet = RoadNetwork::from_adjacency(coords, adj);

    let mut hosts = Vec::new();
    let mut real_objs = Vec::new();
    let mut boundary_objs = Vec::new();
    for (li, &g) in globals.iter().enumerate() {
        let real = objects.object_at(g);
        let b = shape.bidx_of[g.index()];
        if real.is_none() && b == u32::MAX {
            continue;
        }
        let lo = ObjectId(hosts.len() as u32);
        hosts.push(NodeId(li as u32));
        if let Some(o) = real {
            real_objs.push((lo, o));
        }
        if b != u32::MAX {
            boundary_objs.push((lo, b));
        }
    }
    let part_objects = ObjectSet::from_nodes(&subnet, hosts);
    // Local ids ascend with global node ids, so boundary pseudo-object order
    // is exactly the region's boundary order (ascending global boundary
    // index).
    debug_assert!(boundary_objs
        .iter()
        .enumerate()
        .all(|(i, &(_, b))| b as usize == shape.boundary_base[p] + i));

    let capture: Vec<ObjectId> = boundary_objs.iter().map(|&(lo, _)| lo).collect();

    let part_cfg = SignatureConfig {
        parallel: false,
        ..config.clone()
    };
    // Same substrate rule as a single-index build, decided per region.
    let (index, rows) =
        SignatureIndex::build_serial(&subnet, &part_objects, &part_cfg, ws, &capture);

    BuiltPart {
        region: Region {
            net: subnet,
            objects: part_objects,
            index,
            real_objs,
            boundary_objs,
        },
        rows,
    }
}
