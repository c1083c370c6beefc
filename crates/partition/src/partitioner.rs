//! Network partitioner: K connectivity-clustered regions grown from
//! CCAM-spread BFS seeds.
//!
//! The partitioner reuses the storage layer's region-growing primitive
//! ([`dsi_storage::grow_region`], the same BFS packing loop behind
//! [`dsi_storage::ccam_order`]): K seeds are taken at equal strides through
//! the CCAM order — connectivity-distant by construction — and grown
//! round-robin in small budgeted chunks over a shared `seen` map. A node
//! belongs to whichever region enqueued it first, so every region is
//! connected in the induced subgraph and the rotation keeps region sizes
//! balanced. Cut edges are minimized heuristically the same way CCAM
//! minimizes page-crossing edges: BFS growth keeps each region a compact
//! graph neighbourhood, so only the meeting fronts contribute cuts.

use dsi_graph::{Dist, NodeId, RoadNetwork, INFINITY};
use dsi_storage::grow_region;
use std::collections::VecDeque;

/// One edge crossing a region boundary, recorded from the side of `local`:
/// the partition owning `local` lists the edge in its cut set, and the
/// partition owning `remote` lists the mirror edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CutEdge {
    /// Endpoint inside the recording region (global node id).
    pub local: NodeId,
    /// Endpoint in the other region (global node id).
    pub remote: NodeId,
    /// Edge weight.
    pub weight: Dist,
}

/// A disjoint cover of the network's nodes by K connected regions, with
/// each region's boundary nodes and cut edges recorded.
///
/// Invariants (pinned by the proptests in `tests/partitioning.rs`):
/// every node lands in exactly one region; every cut edge is recorded on
/// both sides; boundary lists contain exactly the nodes incident to a cut
/// edge of their region, sorted ascending; region node lists are sorted
/// ascending (a region-local node id is the rank in this list).
#[derive(Clone, Debug)]
pub struct Partitioning {
    num_parts: usize,
    part_of: Vec<u32>,
    nodes: Vec<Vec<NodeId>>,
    boundary: Vec<Vec<NodeId>>,
    cuts: Vec<Vec<CutEdge>>,
}

impl Partitioning {
    /// Partition `net` into (at most) `k` regions. `k` is clamped to
    /// `1..=num_nodes`; `k = 1` yields the trivial partitioning with no
    /// boundary. On a disconnected network, each extra component is
    /// attached wholesale to the currently smallest region.
    pub fn new(net: &RoadNetwork, k: usize) -> Self {
        let n = net.num_nodes();
        assert!(n > 0, "cannot partition an empty network");
        let k = k.clamp(1, n);

        let order = dsi_storage::ccam_order(net);
        let mut seen = vec![false; n];
        let mut queues: Vec<VecDeque<NodeId>> = Vec::with_capacity(k);
        let mut regions: Vec<Vec<usize>> = vec![Vec::new(); k];
        for i in 0..k {
            // Stride positions are strictly increasing for k ≤ n, so the
            // seeds are distinct.
            let seed = NodeId(order[i * n / k] as u32);
            seen[seed.index()] = true;
            queues.push(VecDeque::from([seed]));
        }

        // Round-robin growth in small chunks: a region whose queue runs
        // dry (walled in by its neighbours) simply stops claiming nodes
        // and the others absorb the remainder.
        const CHUNK: usize = 64;
        loop {
            let mut grew = 0;
            for (p, queue) in queues.iter_mut().enumerate() {
                grew += grow_region(net, queue, &mut seen, CHUNK, &mut regions[p]);
            }
            if grew == 0 {
                break;
            }
        }
        // Disconnected leftovers: whole components join the smallest
        // region (they contribute no cut edges either way).
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let p = (0..k).min_by_key(|&p| regions[p].len()).expect("k >= 1");
            seen[start] = true;
            let mut queue = VecDeque::from([NodeId(start as u32)]);
            grow_region(net, &mut queue, &mut seen, usize::MAX, &mut regions[p]);
        }

        let mut part_of = vec![0u32; n];
        let nodes: Vec<Vec<NodeId>> = regions
            .into_iter()
            .map(|mut r| {
                r.sort_unstable();
                r.into_iter().map(|i| NodeId(i as u32)).collect()
            })
            .collect();
        for (p, ns) in nodes.iter().enumerate() {
            for &v in ns {
                part_of[v.index()] = p as u32;
            }
        }

        let mut boundary = vec![Vec::new(); k];
        let mut cuts = vec![Vec::new(); k];
        for u in net.nodes() {
            let pu = part_of[u.index()];
            let mut is_boundary = false;
            for (_, v, w) in net.neighbors(u) {
                if w == INFINITY {
                    continue;
                }
                if part_of[v.index()] != pu {
                    is_boundary = true;
                    cuts[pu as usize].push(CutEdge {
                        local: u,
                        remote: v,
                        weight: w,
                    });
                }
            }
            if is_boundary {
                boundary[pu as usize].push(u);
            }
        }
        Partitioning {
            num_parts: k,
            part_of,
            nodes,
            boundary,
            cuts,
        }
    }

    /// Number of regions K.
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// Region owning node `n`.
    pub fn part_of(&self, n: NodeId) -> usize {
        self.part_of[n.index()] as usize
    }

    /// Global node ids of region `p`, sorted ascending. A node's
    /// region-local id is its rank in this list.
    pub fn nodes(&self, p: usize) -> &[NodeId] {
        &self.nodes[p]
    }

    /// Boundary nodes of region `p` (nodes with a cut edge), sorted.
    pub fn boundary(&self, p: usize) -> &[NodeId] {
        &self.boundary[p]
    }

    /// Cut edges recorded by region `p` (one entry per directed crossing
    /// out of `p`; the other region records the mirror).
    pub fn cuts(&self, p: usize) -> &[CutEdge] {
        &self.cuts[p]
    }
}
