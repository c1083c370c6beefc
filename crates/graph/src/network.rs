//! The road network: a simple undirected weighted graph in CSR form.
//!
//! The representation is tuned for the distance-signature index:
//!
//! * Each node's neighbours occupy consecutive **adjacency slots**. A
//!   signature's backtracking link is the slot of the next node on the
//!   shortest path within the node's adjacency list (paper §3.1), so slots
//!   must be stable across updates. Edge-weight changes mutate weights in
//!   place; edge removal sets the weight to [`INFINITY`], and insertion
//!   re-enables it, keeping slot numbering intact.
//! * A precomputed *reverse-slot* table gives, for every directed arc
//!   `u → v`, the slot of `u` within `v`'s adjacency list. Dijkstra uses it
//!   to record parent slots (i.e. backtracking links) without scanning.

use crate::ids::{weight_in_domain, Dist, NodeId, INFINITY};
use crate::point::Point;

/// Slot of a neighbour within a node's adjacency list. Road junctions have
/// small degree (a two-road intersection has degree 4), so `u8` suffices; the
/// builder rejects degrees above 255.
pub type Slot = u8;

/// An undirected weighted planar graph in compressed sparse row form.
#[derive(Clone, Debug)]
pub struct RoadNetwork {
    /// CSR offsets: node `n`'s arcs live in `offsets[n]..offsets[n + 1]`.
    offsets: Vec<u32>,
    /// Arc heads.
    targets: Vec<NodeId>,
    /// Arc weights; `INFINITY` marks a (temporarily) removed edge. Both
    /// directions of an undirected edge always carry the same weight.
    weights: Vec<Dist>,
    /// For arc `u → v` at arc-index `i`: the slot of `u` in `v`'s list.
    reverse_slot: Vec<Slot>,
    /// Planar coordinate of each node.
    coords: Vec<Point>,
    /// Maximum node degree, cached for index sizing (`|s[i].link|` bits).
    max_degree: u32,
    /// Monotone upper bound on every finite edge weight, cached for
    /// priority-queue sizing: Dial's bucket queue needs `max_w + 1` buckets.
    /// `set_edge_weight` only ever raises it (a loose bound stays a bound;
    /// tracking the exact maximum under weight decreases would cost a scan).
    weight_bound: Dist,
}

impl RoadNetwork {
    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.coords.len()
    }

    /// Number of undirected edges (including removed ones).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Degree of `n` (counting removed edges, which still occupy slots).
    #[inline]
    pub fn degree(&self, n: NodeId) -> u32 {
        self.offsets[n.index() + 1] - self.offsets[n.index()]
    }

    /// Maximum degree over all nodes (`R` in the paper's storage analysis).
    #[inline]
    pub fn max_degree(&self) -> u32 {
        self.max_degree
    }

    /// An upper bound on every finite edge weight currently in the network.
    ///
    /// Exact after construction; after weight updates it may over-estimate
    /// (it never shrinks), which is safe for its one purpose: choosing and
    /// sizing the Dial bucket queue in the shortest-path engine.
    #[inline]
    pub fn edge_weight_bound(&self) -> Dist {
        self.weight_bound
    }

    /// Whether every node reaches every other over finite-weight edges
    /// (one traversal from node 0; removed edges do not count).
    pub fn is_connected(&self) -> bool {
        let n = self.num_nodes();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut reached = 1;
        while let Some(u) = stack.pop() {
            for (_, v, w) in self.neighbors(u) {
                if w != INFINITY && !seen[v.index()] {
                    seen[v.index()] = true;
                    reached += 1;
                    stack.push(v);
                }
            }
        }
        reached == n
    }

    /// The first edge, as `(u, v, w)` with `u < v`, whose weight lies
    /// outside the weight domain ([`crate::ids::weight_in_domain`]); `None`
    /// when every edge's is inside.
    pub fn edge_out_of_domain(&self) -> Option<(NodeId, NodeId, Dist)> {
        let n = self.num_nodes();
        self.nodes()
            .flat_map(|u| self.neighbors(u).map(move |(_, v, w)| (u, v, w)))
            .find(|&(u, v, w)| u < v && !weight_in_domain(w, n))
    }

    /// Planar coordinate of `n`.
    #[inline]
    pub fn coord(&self, n: NodeId) -> Point {
        self.coords[n.index()]
    }

    /// Neighbours of `n` as `(slot, neighbour, weight)`, **including** removed
    /// edges (weight `INFINITY`); search algorithms skip those.
    #[inline]
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = (Slot, NodeId, Dist)> + '_ {
        let lo = self.offsets[n.index()] as usize;
        let hi = self.offsets[n.index() + 1] as usize;
        (lo..hi).map(move |i| ((i - lo) as Slot, self.targets[i], self.weights[i]))
    }

    /// The neighbour of `n` occupying adjacency `slot`.
    ///
    /// This is the dereference of a backtracking link: `s(n)[o].link = slot`
    /// means the next node from `n` along the shortest path to `o` is
    /// `neighbor_at(n, slot)`.
    #[inline]
    pub fn neighbor_at(&self, n: NodeId, slot: Slot) -> (NodeId, Dist) {
        let i = self.offsets[n.index()] as usize + slot as usize;
        debug_assert!((i as u32) < self.offsets[n.index() + 1]);
        (self.targets[i], self.weights[i])
    }

    /// For the arc leaving `n` at `slot` (towards `v`), the slot of `n`
    /// within `v`'s adjacency list.
    #[inline]
    pub fn reverse_slot(&self, n: NodeId, slot: Slot) -> Slot {
        let i = self.offsets[n.index()] as usize + slot as usize;
        self.reverse_slot[i]
    }

    /// Slot of `v` in `n`'s adjacency list, if the edge exists (even if
    /// currently removed).
    pub fn slot_of(&self, n: NodeId, v: NodeId) -> Option<Slot> {
        self.neighbors(n)
            .find(|&(_, t, _)| t == v)
            .map(|(s, _, _)| s)
    }

    /// Current weight of the undirected edge `{u, v}`; `None` when the nodes
    /// are not adjacent, `Some(INFINITY)` when the edge is removed.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<Dist> {
        self.neighbors(u)
            .find(|&(_, t, _)| t == v)
            .map(|(_, _, w)| w)
    }

    /// Set the weight of edge `{u, v}` in both directions, returning the old
    /// weight. Panics if `u` and `v` are not adjacent in the CSR structure.
    ///
    /// Passing [`INFINITY`] removes the edge; passing a finite weight
    /// (re-)inserts it. Slot numbering is unaffected either way, so existing
    /// backtracking links stay dereferenceable.
    pub fn set_edge_weight(&mut self, u: NodeId, v: NodeId, w: Dist) -> Dist {
        let iu = self.arc_index(u, v).expect("set_edge_weight: no such edge");
        let iv = self.arc_index(v, u).expect("set_edge_weight: no such edge");
        let old = self.weights[iu];
        debug_assert_eq!(old, self.weights[iv], "undirected weights diverged");
        self.weights[iu] = w;
        self.weights[iv] = w;
        if w != INFINITY && w > self.weight_bound {
            self.weight_bound = w;
        }
        old
    }

    fn arc_index(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let lo = self.offsets[u.index()] as usize;
        let hi = self.offsets[u.index() + 1] as usize;
        (lo..hi).find(|&i| self.targets[i] == v)
    }

    /// Size in bytes of node `n`'s adjacency-list record on disk: one slot
    /// per neighbour with a 4-byte target id and a 4-byte weight, plus a
    /// 2-byte degree header. Used by the CCAM page layout.
    pub fn adjacency_record_bytes(&self, n: NodeId) -> usize {
        2 + 8 * self.degree(n) as usize
    }
}

impl RoadNetwork {
    /// Rebuild from explicit per-node adjacency lists **in slot order**
    /// (persistence support — slot order carries the backtracking links).
    /// Unlike [`NetworkBuilder`], `INFINITY` weights (removed edges) are
    /// accepted.
    ///
    /// # Panics
    /// On asymmetric adjacency, weight mismatches between the two
    /// directions, self-loops, or degrees above 255.
    pub fn from_adjacency(coords: Vec<Point>, adj: Vec<Vec<(NodeId, Dist)>>) -> Self {
        assert_eq!(coords.len(), adj.len());
        let n = coords.len();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut max_degree = 0u32;
        for a in &adj {
            assert!(a.len() <= u8::MAX as usize + 1, "degree exceeds slot width");
            max_degree = max_degree.max(a.len() as u32);
            offsets.push(offsets.last().unwrap() + a.len() as u32);
        }
        let total = *offsets.last().unwrap() as usize;
        let mut targets = Vec::with_capacity(total);
        let mut weights = Vec::with_capacity(total);
        for (u, a) in adj.iter().enumerate() {
            let mut seen = std::collections::HashSet::with_capacity(a.len());
            for &(t, w) in a {
                assert!(t.index() < n, "target out of range");
                assert!(t.index() != u, "self-loop");
                assert!(seen.insert(t), "duplicate edge in adjacency of node {u}");
                targets.push(t);
                weights.push(w);
            }
        }
        let mut reverse_slot = vec![0 as Slot; total];
        for u in 0..n {
            let lo = offsets[u] as usize;
            let hi = offsets[u + 1] as usize;
            for i in lo..hi {
                let v = targets[i].index();
                let pos = adj[v]
                    .iter()
                    .position(|&(t, _)| t.index() == u)
                    .expect("asymmetric adjacency");
                assert_eq!(
                    adj[v][pos].1, weights[i],
                    "weight mismatch between edge directions"
                );
                reverse_slot[i] = pos as Slot;
            }
        }
        let weight_bound = max_finite_weight(&weights);
        RoadNetwork {
            offsets,
            targets,
            weights,
            reverse_slot,
            coords,
            max_degree,
            weight_bound,
        }
    }
}

/// Largest finite weight in an arc-weight array (0 on an edgeless network).
fn max_finite_weight(weights: &[Dist]) -> Dist {
    weights
        .iter()
        .copied()
        .filter(|&w| w != INFINITY)
        .max()
        .unwrap_or(0)
}

/// Incremental builder for [`RoadNetwork`].
///
/// Nodes are added with coordinates; undirected edges with positive finite
/// weights. Duplicate edges and self-loops are rejected — the paper models
/// roads as a *simple* undirected graph.
#[derive(Default)]
pub struct NetworkBuilder {
    coords: Vec<Point>,
    /// Per-node adjacency under construction: (target, weight).
    adj: Vec<Vec<(NodeId, Dist)>>,
}

impl NetworkBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-allocate for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        NetworkBuilder {
            coords: Vec::with_capacity(n),
            adj: Vec::with_capacity(n),
        }
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self, p: Point) -> NodeId {
        let id = NodeId(self.coords.len() as u32);
        self.coords.push(p);
        self.adj.push(Vec::new());
        id
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.coords.len()
    }

    /// Adjacency of `n` as added so far: `(target, weight)` pairs.
    pub fn adjacency_of(&self, n: NodeId) -> &[(NodeId, Dist)] {
        &self.adj[n.index()]
    }

    /// Whether `{u, v}` has already been added.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj[u.index()].iter().any(|&(t, _)| t == v)
    }

    /// Add the undirected edge `{u, v}` with weight `w`.
    ///
    /// # Panics
    /// On self-loops, duplicate edges, out-of-range endpoints, zero or
    /// infinite weights.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: Dist) {
        assert!(u != v, "self-loop {u}");
        assert!(w > 0 && w < INFINITY, "edge weight must be positive finite");
        assert!(u.index() < self.coords.len() && v.index() < self.coords.len());
        assert!(!self.has_edge(u, v), "duplicate edge {u}-{v}");
        self.adj[u.index()].push((v, w));
        self.adj[v.index()].push((u, w));
    }

    /// Finalize into CSR form.
    ///
    /// # Panics
    /// If any node degree exceeds 255 (slots are `u8`).
    pub fn build(self) -> RoadNetwork {
        let n = self.coords.len();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut max_degree = 0u32;
        for a in &self.adj {
            assert!(a.len() <= u8::MAX as usize + 1, "degree exceeds slot width");
            max_degree = max_degree.max(a.len() as u32);
            offsets.push(offsets.last().unwrap() + a.len() as u32);
        }
        let total = *offsets.last().unwrap() as usize;
        let mut targets = Vec::with_capacity(total);
        let mut weights = Vec::with_capacity(total);
        for a in &self.adj {
            for &(t, w) in a {
                targets.push(t);
                weights.push(w);
            }
        }
        // Reverse-slot table: position of u within each arc target's list.
        let mut reverse_slot = vec![0 as Slot; total];
        for u in 0..n {
            let lo = offsets[u] as usize;
            let hi = offsets[u + 1] as usize;
            for i in lo..hi {
                let v = targets[i].index();
                let pos = self.adj[v]
                    .iter()
                    .position(|&(t, _)| t.index() == u)
                    .expect("asymmetric adjacency");
                reverse_slot[i] = pos as Slot;
            }
        }
        let weight_bound = max_finite_weight(&weights);
        RoadNetwork {
            offsets,
            targets,
            weights,
            reverse_slot,
            coords: self.coords,
            max_degree,
            weight_bound,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 7-node example network of Figure 3.1 in the paper.
    ///
    /// Edges: n1-n2 (8), n1-n3 (1), n2-n3 (4), n2-n4 (6), n2-n5 (12),
    /// n3-n4 (3), n4-n5 (5), n4-n6 (11)... The figure's exact weights are
    /// partly illegible in the text dump; we use a fixed small network with
    /// the same topology spirit for unit tests.
    pub(crate) fn small_net() -> RoadNetwork {
        let mut b = NetworkBuilder::new();
        let pts = [
            (0.0, 1.0),
            (1.0, 2.0),
            (1.0, 0.0),
            (2.0, 1.0),
            (3.0, 2.0),
            (3.0, 0.0),
            (4.0, 1.0),
        ];
        let ids: Vec<NodeId> = pts
            .iter()
            .map(|&(x, y)| b.add_node(Point::new(x, y)))
            .collect();
        let edges = [
            (0, 1, 8),
            (0, 2, 1),
            (1, 2, 4),
            (1, 3, 6),
            (2, 3, 3),
            (3, 4, 5),
            (3, 5, 4),
            (4, 6, 6),
            (5, 6, 5),
        ];
        for &(u, v, w) in &edges {
            b.add_edge(ids[u], ids[v], w);
        }
        b.build()
    }

    #[test]
    fn csr_shape() {
        let g = small_net();
        assert_eq!(g.num_nodes(), 7);
        assert_eq!(g.num_edges(), 9);
        assert_eq!(g.degree(NodeId(3)), 4);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn neighbors_and_slots_agree() {
        let g = small_net();
        for n in g.nodes() {
            for (slot, t, w) in g.neighbors(n) {
                assert_eq!(g.neighbor_at(n, slot), (t, w));
                assert_eq!(g.slot_of(n, t), Some(slot));
            }
        }
    }

    #[test]
    fn reverse_slot_round_trips() {
        let g = small_net();
        for n in g.nodes() {
            for (slot, t, _) in g.neighbors(n) {
                let back = g.reverse_slot(n, slot);
                let (nn, _) = g.neighbor_at(t, back);
                assert_eq!(nn, n, "reverse slot of {n}->{t} must point back");
            }
        }
    }

    #[test]
    fn edge_weight_lookup() {
        let g = small_net();
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(8));
        assert_eq!(g.edge_weight(NodeId(1), NodeId(0)), Some(8));
        assert_eq!(g.edge_weight(NodeId(0), NodeId(6)), None);
    }

    #[test]
    fn set_edge_weight_updates_both_directions() {
        let mut g = small_net();
        let old = g.set_edge_weight(NodeId(0), NodeId(1), 3);
        assert_eq!(old, 8);
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(3));
        assert_eq!(g.edge_weight(NodeId(1), NodeId(0)), Some(3));
    }

    #[test]
    fn remove_and_reinsert_edge_keeps_slots() {
        let mut g = small_net();
        let slot_before = g.slot_of(NodeId(0), NodeId(1)).unwrap();
        g.set_edge_weight(NodeId(0), NodeId(1), INFINITY);
        assert_eq!(g.slot_of(NodeId(0), NodeId(1)), Some(slot_before));
        assert_eq!(g.degree(NodeId(0)), 2, "removed edges keep their slot");
        g.set_edge_weight(NodeId(0), NodeId(1), 2);
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(2));
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edge_rejected() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        b.add_edge(a, c, 1);
        b.add_edge(c, a, 2);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        b.add_edge(a, a, 1);
    }

    #[test]
    fn weight_bound_is_exact_after_build_and_monotone_after_updates() {
        let mut g = small_net();
        assert_eq!(g.edge_weight_bound(), 8);
        // Raising a weight raises the bound.
        g.set_edge_weight(NodeId(0), NodeId(1), 20);
        assert_eq!(g.edge_weight_bound(), 20);
        // Lowering it back keeps the (now loose) bound — still an upper bound.
        g.set_edge_weight(NodeId(0), NodeId(1), 2);
        assert_eq!(g.edge_weight_bound(), 20);
        // Removal never counts as a weight.
        g.set_edge_weight(NodeId(0), NodeId(1), INFINITY);
        assert_eq!(g.edge_weight_bound(), 20);
    }

    #[test]
    fn adjacency_record_bytes_scale_with_degree() {
        let g = small_net();
        assert_eq!(g.adjacency_record_bytes(NodeId(3)), 2 + 8 * 4);
    }
}
