//! PHAST: full single-source shortest paths over the hierarchy.
//!
//! One-to-all on a CH (Delling et al., "PHAST: Hardware-accelerated
//! shortest path trees"): run a plain upward Dijkstra from the source —
//! a few hundred settles — then sweep every node once in *descending*
//! rank order, relaxing its downward arcs. When the sweep reaches a node
//! its distance is already final (every higher-ranked in-neighbor was
//! processed earlier), so the sweep needs no priority queue: it is a
//! linear, cache-friendly pass over two flat arrays.
//!
//! This is the construction accelerator for index builds: one PHAST run
//! per object replaces one full Dijkstra per object, with the sweep cost
//! O(n + m_ch) independent of queue discipline.

use dsi_graph::{Dist, NodeId, SsspWorkspace, INFINITY};

use crate::build::ContractionHierarchy;

/// Reusable state for PHAST runs: the upward search plus the dense output
/// distances. The distance array is re-filled (a memset) per run — unlike
/// the epoch-stamped workspace the sweep reads every slot, so stamping
/// would cost more than it saves.
#[derive(Clone, Debug, Default)]
pub struct PhastWorkspace {
    up: SsspWorkspace,
    dist: Vec<Dist>,
}

impl PhastWorkspace {
    pub fn new() -> PhastWorkspace {
        PhastWorkspace::default()
    }

    /// All distances from the last run's source, indexed by node.
    #[inline]
    pub fn dists(&self) -> &[Dist] {
        &self.dist
    }
}

impl ContractionHierarchy {
    /// Exact distances from `source` to every node, into `ws`.
    pub fn sssp_phast(&self, source: NodeId, ws: &mut PhastWorkspace) {
        ws.dist.clear();
        ws.dist.resize(self.n, INFINITY);

        ws.up.begin_external(self.n, self.up_step_bound);
        ws.up.improve(source, 0);
        while let Some((v, d)) = ws.up.pop_settled() {
            ws.dist[v.index()] = d;
            for a in self.up_arcs_of(v) {
                ws.up.improve(a.to, d + a.weight);
            }
        }

        // Linear sweep, descending rank: `sweep_arcs` is laid out in
        // exactly this order, so the arc reads are sequential.
        for (i, &v) in self.order.iter().rev().enumerate() {
            let dv = ws.dist[v.index()];
            if dv == INFINITY {
                continue;
            }
            let arcs =
                &self.sweep_arcs[self.sweep_index[i] as usize..self.sweep_index[i + 1] as usize];
            for &(to, w) in arcs {
                let slot = &mut ws.dist[to.index()];
                let nd = dv + w;
                if nd < *slot {
                    *slot = nd;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ChConfig;
    use dsi_graph::generate::{grid, random_planar, PlanarConfig};
    use dsi_graph::sssp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn phast_equals_dijkstra_from_every_grid_source() {
        let g = grid(8, 8);
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        let mut ws = PhastWorkspace::new();
        for s in g.nodes() {
            ch.sssp_phast(s, &mut ws);
            assert_eq!(ws.dists(), &sssp(&g, s).dist[..], "source {s}");
        }
    }

    #[test]
    fn phast_equals_dijkstra_on_random_planar_sources() {
        let mut rng = StdRng::seed_from_u64(11);
        let net = random_planar(
            &PlanarConfig {
                num_nodes: 600,
                ..Default::default()
            },
            &mut rng,
        );
        let ch = ContractionHierarchy::build(&net, &ChConfig::default());
        let mut ws = PhastWorkspace::new();
        for s in net.nodes().step_by(53) {
            ch.sssp_phast(s, &mut ws);
            assert_eq!(ws.dists(), &sssp(&net, s).dist[..]);
        }
    }

    #[test]
    fn unreachable_components_stay_infinite() {
        let mut b = dsi_graph::NetworkBuilder::new();
        let p = dsi_graph::Point::new(0.0, 0.0);
        let ids: Vec<NodeId> = (0..5).map(|_| b.add_node(p)).collect();
        b.add_edge(ids[0], ids[1], 2);
        b.add_edge(ids[2], ids[3], 1);
        b.add_edge(ids[3], ids[4], 6);
        let net = b.build();
        let ch = ContractionHierarchy::build(&net, &ChConfig::default());
        let mut ws = PhastWorkspace::new();
        ch.sssp_phast(ids[0], &mut ws);
        assert_eq!(ws.dists()[ids[1].index()], 2);
        assert_eq!(ws.dists()[ids[2].index()], INFINITY);
        assert_eq!(ws.dists()[ids[4].index()], INFINITY);
    }
}
