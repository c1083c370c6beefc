//! Property tests pinning the partitioner's invariants: every node lands in
//! exactly one region, every cut edge is recorded on both sides, boundary
//! lists are exactly the cut-incident nodes, and regions grown on a
//! connected network are connected.

use dsi_graph::{NetworkBuilder, NodeId, Point, RoadNetwork};
use dsi_partition::{CutEdge, Partitioning};
use proptest::prelude::*;
use std::collections::HashSet;

/// Ring + random chords: always connected, arbitrary weights.
fn arb_network() -> impl Strategy<Value = RoadNetwork> {
    (
        3usize..40,
        proptest::collection::vec((0usize..40, 0usize..40, 1u32..30), 0..60),
        proptest::collection::vec(1u32..30, 40),
    )
        .prop_map(|(n, chords, ring_w)| {
            let mut b = NetworkBuilder::new();
            let ids: Vec<NodeId> = (0..n)
                .map(|i| b.add_node(Point::new(i as f64, (i * i % 7) as f64)))
                .collect();
            for i in 0..n {
                b.add_edge(ids[i], ids[(i + 1) % n], ring_w[i]);
            }
            for (u, v, w) in chords {
                let (u, v) = (u % n, v % n);
                if u != v && !b.has_edge(ids[u], ids[v]) {
                    b.add_edge(ids[u], ids[v], w);
                }
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_node_lands_in_exactly_one_region(
        net in arb_network(),
        k in 1usize..9,
    ) {
        let part = Partitioning::new(&net, k);
        let n = net.num_nodes();
        prop_assert!(part.num_parts() >= 1 && part.num_parts() <= n.min(k).max(1));

        // The region node lists are sorted, disjoint, and cover the node
        // set; `part_of` agrees with them.
        let mut owner = vec![usize::MAX; n];
        for p in 0..part.num_parts() {
            let nodes = part.nodes(p);
            prop_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "region {p} unsorted");
            for &v in nodes {
                prop_assert_eq!(owner[v.index()], usize::MAX, "node owned twice");
                owner[v.index()] = p;
            }
        }
        for v in net.nodes() {
            prop_assert_eq!(owner[v.index()], part.part_of(v), "part_of disagrees");
        }
        prop_assert!(owner.iter().all(|&p| p != usize::MAX), "node unowned");
    }

    #[test]
    fn every_cut_edge_is_recorded_on_both_sides(
        net in arb_network(),
        k in 1usize..9,
    ) {
        let part = Partitioning::new(&net, k);

        // Every recorded cut is a real cross-region edge, and its mirror is
        // recorded by the other side.
        for p in 0..part.num_parts() {
            for cut in part.cuts(p) {
                prop_assert_eq!(part.part_of(cut.local), p);
                prop_assert_ne!(part.part_of(cut.remote), p);
                prop_assert_eq!(net.edge_weight(cut.local, cut.remote), Some(cut.weight));
                let mirror = CutEdge {
                    local: cut.remote,
                    remote: cut.local,
                    weight: cut.weight,
                };
                prop_assert!(
                    part.cuts(part.part_of(cut.remote)).contains(&mirror),
                    "mirror of {cut:?} missing"
                );
            }
        }
        // Conversely, every cross-region edge of the network is recorded.
        for u in net.nodes() {
            for (_, v, w) in net.neighbors(u) {
                let pu = part.part_of(u);
                if part.part_of(v) != pu {
                    let cut = CutEdge { local: u, remote: v, weight: w };
                    prop_assert!(part.cuts(pu).contains(&cut), "{cut:?} unrecorded");
                }
            }
        }
    }

    #[test]
    fn boundary_lists_are_exactly_the_cut_incident_nodes(
        net in arb_network(),
        k in 1usize..9,
    ) {
        let part = Partitioning::new(&net, k);
        for p in 0..part.num_parts() {
            let expect: HashSet<NodeId> = part.cuts(p).iter().map(|c| c.local).collect();
            let got: Vec<NodeId> = part.boundary(p).to_vec();
            prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "boundary unsorted");
            prop_assert_eq!(got.len(), expect.len());
            prop_assert!(got.iter().all(|b| expect.contains(b)));
        }
        if part.num_parts() == 1 {
            prop_assert_eq!(part.boundary(0).len(), 0);
            prop_assert!(part.cuts(0).is_empty());
        }
    }

    #[test]
    fn regions_grown_on_a_connected_network_are_connected(
        net in arb_network(),
        k in 1usize..9,
    ) {
        let part = Partitioning::new(&net, k);
        for p in 0..part.num_parts() {
            let nodes = part.nodes(p);
            let inside: HashSet<NodeId> = nodes.iter().copied().collect();
            let mut seen = HashSet::from([nodes[0]]);
            let mut stack = vec![nodes[0]];
            while let Some(u) = stack.pop() {
                for (_, v, _) in net.neighbors(u) {
                    if inside.contains(&v) && seen.insert(v) {
                        stack.push(v);
                    }
                }
            }
            prop_assert_eq!(seen.len(), nodes.len(), "region {p} disconnected");
        }
    }
}
