//! Shortest-path algorithms: Dijkstra (full / bounded / incremental
//! expansion) and multi-source Dijkstra.
//!
//! All variants record, for every settled node `v`, the *parent slot*: the
//! adjacency slot of `v`'s shortest-path predecessor within `v`'s own
//! adjacency list. When the source is an object `o`, that slot is exactly the
//! backtracking link `s(v)[o].link` of the paper (§3.1): the next hop from
//! `v` towards `o`.
//!
//! Two engine-level choices are pluggable (see [`crate::queue`] and
//! [`crate::workspace`]):
//!
//! * the **priority-queue substrate** — a Dial bucket queue by default on
//!   small-integer-weight networks (the paper's weights are 1..10), falling
//!   back to a binary heap when weights are wide;
//! * the **state arrays** — callers running many SSSPs (index construction
//!   does one per object) pass a reusable [`SsspWorkspace`] so dist/parent/
//!   settled arrays and the queue are allocated once, not per source.
//!
//! Every variant returns exact distances and *a* valid shortest-path parent
//! per node. Parent choice and intra-distance settle order may differ
//! between substrates (both break distance ties differently); no caller may
//! rely on them beyond validity.

use crate::ids::{Dist, NodeId, INFINITY, NO_NODE};
use crate::network::{RoadNetwork, Slot};
use crate::queue::{MonotonePq, QueueBackend};
use crate::workspace::SsspWorkspace;

/// A single-source shortest-path tree.
#[derive(Clone, Debug)]
pub struct SsspTree {
    pub source: NodeId,
    /// `dist[v]` — network distance from the source; `INFINITY` if
    /// unreachable.
    pub dist: Vec<Dist>,
    /// `parent[v]` — predecessor of `v` on the shortest path from the source
    /// (equivalently: the next hop from `v` *towards* the source). `NO_NODE`
    /// for the source itself and unreachable nodes.
    pub parent: Vec<NodeId>,
    /// `parent_slot[v]` — slot of `parent[v]` within `v`'s adjacency list;
    /// undefined where `parent[v] == NO_NODE`.
    pub parent_slot: Vec<Slot>,
}

impl SsspTree {
    /// Shortest path from the source to `v` (inclusive of both endpoints),
    /// or `None` if `v` is unreachable.
    pub fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if self.dist[v.index()] == INFINITY {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while cur != self.source {
            cur = self.parent[cur.index()];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

/// Full single-source Dijkstra over finite-weight edges.
pub fn sssp(net: &RoadNetwork, source: NodeId) -> SsspTree {
    sssp_bounded(net, source, INFINITY)
}

/// Dijkstra truncated at `radius`: nodes strictly farther than `radius` keep
/// `dist == INFINITY`. With `radius == INFINITY` this is plain Dijkstra.
pub fn sssp_bounded(net: &RoadNetwork, source: NodeId, radius: Dist) -> SsspTree {
    let mut exp = DijkstraExpansion::new(net, source);
    drive_to(&mut exp, radius);
    exp.into_tree()
}

/// [`sssp`] on an explicit queue substrate (benchmarks and agreement tests;
/// production callers should let `Auto` decide).
pub fn sssp_with_backend(net: &RoadNetwork, source: NodeId, backend: QueueBackend) -> SsspTree {
    sssp_bounded_with_backend(net, source, INFINITY, backend)
}

/// [`sssp_bounded`] on an explicit queue substrate.
pub fn sssp_bounded_with_backend(
    net: &RoadNetwork,
    source: NodeId,
    radius: Dist,
    backend: QueueBackend,
) -> SsspTree {
    let mut exp = DijkstraExpansion::with_backend(net, source, backend);
    drive_to(&mut exp, radius);
    exp.into_tree()
}

/// Full Dijkstra into a reusable workspace: zero allocation after the first
/// run. Read results through the workspace accessors or
/// [`SsspWorkspace::to_tree`].
pub fn sssp_into(net: &RoadNetwork, source: NodeId, ws: &mut SsspWorkspace) {
    sssp_bounded_into(net, source, INFINITY, ws);
}

/// Bounded Dijkstra into a reusable workspace.
pub fn sssp_bounded_into(net: &RoadNetwork, source: NodeId, radius: Dist, ws: &mut SsspWorkspace) {
    let mut exp = DijkstraExpansion::in_workspace(net, source, ws);
    drive_to(&mut exp, radius);
}

/// Run `exp` until exhaustion or past `radius` (rolling back the one
/// over-radius settlement).
fn drive_to(exp: &mut DijkstraExpansion<'_>, radius: Dist) {
    exp.run_to(radius);
}

/// The expansion's state: owned for one-shot searches, borrowed when the
/// caller threads a [`SsspWorkspace`] through many searches.
enum WsRef<'a> {
    Owned(Box<SsspWorkspace>),
    Borrowed(&'a mut SsspWorkspace),
}

impl WsRef<'_> {
    #[inline]
    fn get(&self) -> &SsspWorkspace {
        match self {
            WsRef::Owned(ws) => ws,
            WsRef::Borrowed(ws) => ws,
        }
    }

    #[inline]
    fn get_mut(&mut self) -> &mut SsspWorkspace {
        match self {
            WsRef::Owned(ws) => ws,
            WsRef::Borrowed(ws) => ws,
        }
    }
}

/// Incremental network expansion: Dijkstra exposed as an iterator over
/// settled nodes in non-decreasing distance order.
///
/// This is the engine of the INE baseline (Papadias et al., reviewed in §2)
/// and of the NVD construction; callers observe each settled node and decide
/// when to stop, and can charge page accesses per visited node.
pub struct DijkstraExpansion<'a> {
    net: &'a RoadNetwork,
    ws: WsRef<'a>,
    source: NodeId,
    last: Option<NodeId>,
    /// Count of queue relaxations performed (a CPU-cost proxy).
    pub relaxations: u64,
}

impl<'a> DijkstraExpansion<'a> {
    /// One-shot expansion with internally owned state; the queue substrate
    /// is chosen per [`QueueBackend::Auto`].
    pub fn new(net: &'a RoadNetwork, source: NodeId) -> Self {
        Self::with_backend(net, source, QueueBackend::Auto)
    }

    /// One-shot expansion on an explicit queue substrate.
    pub fn with_backend(net: &'a RoadNetwork, source: NodeId, backend: QueueBackend) -> Self {
        Self::start(net, WsRef::Owned(Box::default()), source, backend)
    }

    /// Expansion reusing `ws` (arrays and queue survive across searches);
    /// any state from a previous run in `ws` is invalidated.
    pub fn in_workspace(net: &'a RoadNetwork, source: NodeId, ws: &'a mut SsspWorkspace) -> Self {
        Self::in_workspace_with(net, source, ws, QueueBackend::Auto)
    }

    /// [`Self::in_workspace`] on an explicit queue substrate.
    pub fn in_workspace_with(
        net: &'a RoadNetwork,
        source: NodeId,
        ws: &'a mut SsspWorkspace,
        backend: QueueBackend,
    ) -> Self {
        Self::start(net, WsRef::Borrowed(ws), source, backend)
    }

    fn start(
        net: &'a RoadNetwork,
        mut ws: WsRef<'a>,
        source: NodeId,
        backend: QueueBackend,
    ) -> Self {
        let w = ws.get_mut();
        w.begin(net, backend);
        w.label(source, 0, NO_NODE, 0);
        w.pq.push(0, source);
        DijkstraExpansion {
            net,
            ws,
            source,
            last: None,
            relaxations: 0,
        }
    }

    /// Settle and return the next-nearest unsettled node, or `None` when the
    /// reachable component is exhausted.
    pub fn next_settled(&mut self) -> Option<(NodeId, Dist)> {
        self.next_settled_where(|_| true)
    }

    /// Like [`Self::next_settled`], but only relaxes edges into nodes for
    /// which `allow` returns true — the search never labels (hence never
    /// settles) a disallowed node. Used by the NVD construction to confine
    /// a search to one Voronoi cell.
    pub fn next_settled_where(
        &mut self,
        mut allow: impl FnMut(NodeId) -> bool,
    ) -> Option<(NodeId, Dist)> {
        let ws = self.ws.get_mut();
        while let Some((d, u)) = ws.pq.pop() {
            if ws.is_settled(u) {
                continue; // stale queue entry
            }
            debug_assert_eq!(
                ws.dist(u),
                d,
                "first unsettled pop carries the final distance"
            );
            ws.settle(u);
            self.last = Some(u);
            for (slot, v, w) in self.net.neighbors(u) {
                if w == INFINITY || ws.is_settled(v) || !allow(v) {
                    continue;
                }
                let nd = d + w;
                if nd < ws.dist(v) {
                    // Slot of u within v's list = reverse of (u, slot).
                    ws.label(v, nd, u, self.net.reverse_slot(u, slot));
                    ws.pq.push(nd, v);
                    self.relaxations += 1;
                }
            }
            return Some((u, d));
        }
        None
    }

    /// Distance to `v` as currently known (exact once `v` was settled).
    #[inline]
    pub fn dist(&self, v: NodeId) -> Dist {
        self.ws.get().dist(v)
    }

    /// Whether `v` has been settled (its distance finalized).
    #[inline]
    pub fn is_settled(&self, v: NodeId) -> bool {
        self.ws.get().is_settled(v)
    }

    /// Number of settled nodes so far.
    pub fn settled_count(&self) -> usize {
        self.ws.get().settled_count()
    }

    /// Roll back the most recent settlement — used by the bounded variant
    /// when the frontier first exceeds the radius.
    fn unsettle_last(&mut self) {
        if let Some(u) = self.last.take() {
            self.ws.get_mut().unsettle(u);
        }
    }

    /// Drive the expansion until the reachable component is exhausted or
    /// the frontier passes `radius` (the one over-radius settlement is
    /// rolled back, so every settled node has `dist ≤ radius`).
    ///
    /// This is the workspace-reusing bounded-search building block: a
    /// worker thread holding one [`SsspWorkspace`] for its whole lifetime
    /// answers each bounded query with `in_workspace` + `run_to` and zero
    /// per-query allocation.
    pub fn run_to(&mut self, radius: Dist) {
        while let Some((_, d)) = self.next_settled() {
            if d > radius {
                // The frontier is monotone: everything after this is farther.
                self.unsettle_last();
                break;
            }
        }
    }

    /// Finalize into an [`SsspTree`]; unsettled nodes keep `INFINITY`.
    pub fn into_tree(self) -> SsspTree {
        self.ws.get().to_tree(self.source)
    }
}

/// Result of a multi-source Dijkstra: the network Voronoi assignment.
#[derive(Clone, Debug)]
pub struct MultiSourceResult {
    /// `owner[v]` — index (into the `sources` slice) of the nearest source;
    /// `u32::MAX` if unreachable. Ties broken towards the lower source index
    /// (deterministic).
    pub owner: Vec<u32>,
    /// Distance to the nearest source.
    pub dist: Vec<Dist>,
    /// Predecessor towards the owning source (`NO_NODE` at sources).
    pub parent: Vec<NodeId>,
    /// Slot of `parent[v]` in `v`'s adjacency list.
    pub parent_slot: Vec<Slot>,
}

/// Multi-source Dijkstra: grows all sources simultaneously, assigning every
/// node to its nearest source. This computes the Network Voronoi Diagram used
/// by the VN3 baseline (§2) in one pass.
pub fn multi_source(net: &RoadNetwork, sources: &[NodeId]) -> MultiSourceResult {
    multi_source_with(net, sources, QueueBackend::Auto)
}

/// [`multi_source`] on an explicit queue substrate.
///
/// The `(dist, owner)` labels are substrate-independent: with positive
/// weights, every relaxation that can still improve a node at its final
/// distance `d` comes from a node settled at a distance `< d`, so the
/// minimum-owner tie rule resolves identically whatever order equal-distance
/// nodes pop in. (Parents are only guaranteed *valid*, as everywhere.)
pub fn multi_source_with(
    net: &RoadNetwork,
    sources: &[NodeId],
    backend: QueueBackend,
) -> MultiSourceResult {
    let n = net.num_nodes();
    let mut dist = vec![INFINITY; n];
    let mut owner = vec![u32::MAX; n];
    let mut parent = vec![NO_NODE; n];
    let mut parent_slot = vec![0 as Slot; n];
    let mut settled = vec![false; n];
    // Queue entries carry the owner; the heap substrate orders equal-key
    // entries by (owner index, node id) for determinism, the bucket
    // substrate relies on the label guard below instead.
    let mut pq: MonotonePq<(u32, NodeId)> = MonotonePq::for_network(net, backend);
    for (i, &s) in sources.iter().enumerate() {
        let i = i as u32;
        // A node hosting several sources keeps the first.
        if dist[s.index()] == 0 && owner[s.index()] != u32::MAX {
            continue;
        }
        dist[s.index()] = 0;
        owner[s.index()] = i;
        pq.push(0, (i, s));
    }
    while let Some((d, (o, u))) = pq.pop() {
        if settled[u.index()] || owner[u.index()] != o || dist[u.index()] != d {
            continue;
        }
        settled[u.index()] = true;
        for (slot, v, w) in net.neighbors(u) {
            if w == INFINITY || settled[v.index()] {
                continue;
            }
            let nd = d + w;
            let better = nd < dist[v.index()] || (nd == dist[v.index()] && o < owner[v.index()]);
            if better {
                dist[v.index()] = nd;
                owner[v.index()] = o;
                parent[v.index()] = u;
                parent_slot[v.index()] = net.reverse_slot(u, slot);
                pq.push(nd, (o, v));
            }
        }
    }
    MultiSourceResult {
        owner,
        dist,
        parent,
        parent_slot,
    }
}

/// The largest factor `f` such that `f * euclidean(u, v) <= w(u, v)` for
/// every finite edge — i.e. the scale making Euclidean distance a lower
/// bound on network distance (IER's filter). Returns `0.0` when a
/// zero-length edge exists (the bound degenerates to 0).
pub fn euclidean_lower_bound_scale(net: &RoadNetwork) -> f64 {
    let mut scale = f64::INFINITY;
    for u in net.nodes() {
        for (_, v, w) in net.neighbors(u) {
            if w == INFINITY {
                continue;
            }
            let e = net.coord(u).dist(net.coord(v));
            if e <= f64::EPSILON {
                return 0.0;
            }
            scale = scale.min(w as f64 / e);
        }
    }
    if scale.is_finite() {
        scale
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::grid;
    use crate::network::NetworkBuilder;
    use crate::point::Point;
    use crate::queue::MAX_BUCKET_WEIGHT;

    fn line(weights: &[Dist]) -> RoadNetwork {
        let mut b = NetworkBuilder::new();
        let ids: Vec<NodeId> = (0..=weights.len())
            .map(|i| b.add_node(Point::new(i as f64, 0.0)))
            .collect();
        for (i, &w) in weights.iter().enumerate() {
            b.add_edge(ids[i], ids[i + 1], w);
        }
        b.build()
    }

    #[test]
    fn sssp_on_a_line() {
        let g = line(&[2, 3, 4]);
        let t = sssp(&g, NodeId(0));
        assert_eq!(t.dist, vec![0, 2, 5, 9]);
        assert_eq!(t.parent[3], NodeId(2));
        assert_eq!(t.parent[0], NO_NODE);
    }

    #[test]
    fn parent_slot_points_to_parent() {
        let g = grid(5, 5);
        let t = sssp(&g, NodeId(12));
        for v in g.nodes() {
            if t.parent[v.index()] != NO_NODE {
                let (p, _) = g.neighbor_at(v, t.parent_slot[v.index()]);
                assert_eq!(p, t.parent[v.index()]);
            }
        }
    }

    #[test]
    fn grid_distance_is_manhattan() {
        // Unit-weight grid: shortest path = Manhattan distance.
        let g = grid(6, 6);
        let t = sssp(&g, NodeId(0)); // corner (0,0)
        for r in 0..6u32 {
            for c in 0..6u32 {
                let v = NodeId(r * 6 + c);
                assert_eq!(t.dist[v.index()], r + c, "node ({r},{c})");
            }
        }
    }

    #[test]
    fn path_to_reconstructs_shortest_path() {
        let g = grid(4, 4);
        let t = sssp(&g, NodeId(0));
        let p = t.path_to(NodeId(15)).unwrap();
        assert_eq!(p.first(), Some(&NodeId(0)));
        assert_eq!(p.last(), Some(&NodeId(15)));
        assert_eq!(p.len() as Dist - 1, t.dist[15]);
        // Consecutive path nodes are adjacent.
        for w in p.windows(2) {
            assert!(g.edge_weight(w[0], w[1]).is_some());
        }
    }

    #[test]
    fn path_to_reports_unreachable_and_the_source() {
        let mut g = line(&[1, 2, 1]);
        g.set_edge_weight(NodeId(2), NodeId(3), INFINITY);
        let t = sssp(&g, NodeId(0));
        assert_eq!(
            t.path_to(NodeId(2)),
            Some(vec![NodeId(0), NodeId(1), NodeId(2)])
        );
        assert_eq!(t.path_to(NodeId(3)), None, "unreachable");
        assert_eq!(t.path_to(NodeId(0)), Some(vec![NodeId(0)]));
    }

    #[test]
    fn bounded_sssp_truncates() {
        let g = grid(8, 8);
        let t = sssp_bounded(&g, NodeId(0), 3);
        for v in g.nodes() {
            let d = t.dist[v.index()];
            assert!(d == INFINITY || d <= 3);
        }
        // Everything within the radius must be settled.
        let full = sssp(&g, NodeId(0));
        for v in g.nodes() {
            if full.dist[v.index()] <= 3 {
                assert_eq!(t.dist[v.index()], full.dist[v.index()]);
            }
        }
    }

    #[test]
    fn expansion_is_monotone() {
        let g = grid(7, 7);
        let mut exp = DijkstraExpansion::new(&g, NodeId(24));
        let mut prev = 0;
        let mut count = 0;
        while let Some((_, d)) = exp.next_settled() {
            assert!(d >= prev);
            prev = d;
            count += 1;
        }
        assert_eq!(count, 49);
        assert_eq!(exp.settled_count(), 49);
    }

    #[test]
    fn both_backends_run_both_code_paths() {
        // The 7x7 unit grid resolves Auto to buckets; force each substrate
        // and check full agreement on distances plus parent validity.
        let g = grid(7, 7);
        let bucket = sssp_with_backend(&g, NodeId(3), QueueBackend::Bucket);
        let heap = sssp_with_backend(&g, NodeId(3), QueueBackend::BinaryHeap);
        assert_eq!(bucket.dist, heap.dist);
        for t in [&bucket, &heap] {
            for v in g.nodes() {
                let p = t.parent[v.index()];
                if p != NO_NODE {
                    let (pp, _) = g.neighbor_at(v, t.parent_slot[v.index()]);
                    assert_eq!(pp, p);
                    let w = g.edge_weight(v, p).unwrap();
                    assert_eq!(t.dist[p.index()] + w, t.dist[v.index()]);
                }
            }
        }
    }

    #[test]
    fn wide_weights_fall_back_to_the_heap() {
        let g = line(&[1, MAX_BUCKET_WEIGHT + 50, 2]);
        assert_eq!(QueueBackend::Auto.resolve(&g), QueueBackend::BinaryHeap);
        let t = sssp(&g, NodeId(0));
        assert_eq!(
            t.dist,
            vec![0, 1, MAX_BUCKET_WEIGHT + 51, MAX_BUCKET_WEIGHT + 53]
        );
    }

    #[test]
    fn expansion_restricted_by_predicate_stays_inside() {
        // Restrict expansion from a corner to the top row of a grid: the
        // search must behave as if other rows did not exist.
        let g = grid(5, 5);
        let top_row = |v: NodeId| v.index() < 5;
        let mut exp = DijkstraExpansion::new(&g, NodeId(0));
        let mut settled = Vec::new();
        while let Some((v, d)) = exp.next_settled_where(top_row) {
            settled.push((v, d));
        }
        assert_eq!(
            settled,
            (0..5).map(|i| (NodeId(i), i)).collect::<Vec<_>>(),
            "exactly the top row, in order"
        );
    }

    #[test]
    fn removed_edges_are_skipped() {
        let mut g = line(&[1, 1, 1]);
        g.set_edge_weight(NodeId(1), NodeId(2), INFINITY);
        let t = sssp(&g, NodeId(0));
        assert_eq!(t.dist[1], 1);
        assert_eq!(t.dist[2], INFINITY);
        assert_eq!(t.dist[3], INFINITY);
    }

    #[test]
    fn multi_source_assigns_nearest_owner() {
        let g = line(&[1, 1, 1, 1]); // 5 nodes in a row
        for backend in [QueueBackend::Bucket, QueueBackend::BinaryHeap] {
            let r = multi_source_with(&g, &[NodeId(0), NodeId(4)], backend);
            assert_eq!(r.owner[0], 0);
            assert_eq!(r.owner[1], 0);
            assert_eq!(r.owner[2], 0, "tie breaks toward lower source index");
            assert_eq!(r.owner[3], 1);
            assert_eq!(r.owner[4], 1);
            assert_eq!(r.dist, vec![0, 1, 2, 1, 0]);
        }
    }

    #[test]
    fn multi_source_matches_individual_dijkstras() {
        let g = grid(9, 9);
        let sources = [NodeId(0), NodeId(40), NodeId(80)];
        let r = multi_source(&g, &sources);
        let trees: Vec<SsspTree> = sources.iter().map(|&s| sssp(&g, s)).collect();
        for v in g.nodes() {
            let best = trees.iter().map(|t| t.dist[v.index()]).min().unwrap();
            assert_eq!(r.dist[v.index()], best);
            assert_eq!(
                trees[r.owner[v.index()] as usize].dist[v.index()],
                best,
                "owner must be a nearest source"
            );
        }
    }

    #[test]
    fn euclidean_scale_is_admissible() {
        let g = grid(6, 6);
        let s = euclidean_lower_bound_scale(&g);
        let t = sssp(&g, NodeId(0));
        for v in g.nodes() {
            let h = s * g.coord(NodeId(0)).dist(g.coord(v));
            assert!(h <= t.dist[v.index()] as f64 + 1e-9);
        }
    }
}
