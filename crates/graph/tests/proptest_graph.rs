//! Property tests for the shortest-path machinery: Dijkstra against a
//! Bellman–Ford reference, and spanning-forest maintenance against
//! rebuilds, on randomly generated connected networks.

use dsi_graph::spanning::SpanningForest;
use dsi_graph::{
    multi_source, sssp, Dist, NetworkBuilder, NodeId, ObjectSet, Point, RoadNetwork, INFINITY,
};
use proptest::prelude::*;

/// Ring + random chords: always connected, arbitrary weights.
fn arb_network() -> impl Strategy<Value = RoadNetwork> {
    (
        3usize..24,
        proptest::collection::vec((0usize..24, 0usize..24, 1u32..30), 0..30),
        proptest::collection::vec(1u32..30, 24),
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

/// Two ring-with-chords clusters joined by exactly one bridge edge (returned
/// with its weight): removing it disconnects every object from the other
/// cluster, re-inserting it reconnects them.
fn arb_bridged_network() -> impl Strategy<Value = (RoadNetwork, (NodeId, NodeId, Dist))> {
    (
        (3usize..10, 3usize..10),
        proptest::collection::vec((0usize..20, 0usize..20, 1u32..30), 0..16),
        proptest::collection::vec(1u32..30, 20),
        (0usize..20, 0usize..20, 1u32..30),
    )
        .prop_map(|((n1, n2), chords, ring_w, (bu, bv, bw))| {
            let mut b = NetworkBuilder::new();
            let ids: Vec<NodeId> = (0..n1 + n2)
                .map(|i| b.add_node(Point::new(i as f64, (i * i % 7) as f64)))
                .collect();
            for (lo, len) in [(0, n1), (n1, n2)] {
                for i in 0..len {
                    b.add_edge(ids[lo + i], ids[lo + (i + 1) % len], ring_w[lo + i]);
                }
            }
            // Chords stay inside their cluster so only the bridge connects.
            for (u, v, w) in chords {
                let (u, v) = if u % 2 == 0 {
                    (u % n1, v % n1)
                } else {
                    (n1 + u % n2, n1 + v % n2)
                };
                if u != v && !b.has_edge(ids[u], ids[v]) {
                    b.add_edge(ids[u], ids[v], w);
                }
            }
            let bridge = (ids[bu % n1], ids[n1 + bv % n2], bw);
            b.add_edge(bridge.0, bridge.1, bridge.2);
            (b.build(), bridge)
        })
}

/// `picks` folded onto `net`'s nodes, repeats dropped, order kept.
fn distinct_nodes(net: &RoadNetwork, picks: &[usize]) -> Vec<NodeId> {
    let mut seen = std::collections::HashSet::new();
    picks
        .iter()
        .map(|&p| NodeId((p % net.num_nodes()) as u32))
        .filter(|&v| seen.insert(v))
        .collect()
}

/// Textbook Bellman–Ford as an independent oracle.
fn bellman_ford(net: &RoadNetwork, src: NodeId) -> Vec<Dist> {
    let n = net.num_nodes();
    let mut dist = vec![INFINITY; n];
    dist[src.index()] = 0;
    for _ in 0..n {
        let mut changed = false;
        for u in net.nodes() {
            if dist[u.index()] == INFINITY {
                continue;
            }
            for (_, v, w) in net.neighbors(u) {
                if w == INFINITY {
                    continue;
                }
                let nd = dist[u.index()] + w;
                if nd < dist[v.index()] {
                    dist[v.index()] = nd;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dijkstra_matches_bellman_ford(net in arb_network(), src in 0usize..24) {
        let src = NodeId((src % net.num_nodes()) as u32);
        let tree = sssp(&net, src);
        prop_assert_eq!(tree.dist, bellman_ford(&net, src));
    }

    #[test]
    fn multi_source_is_pointwise_minimum(
        net in arb_network(),
        picks in proptest::collection::vec(0usize..24, 1..5),
    ) {
        let sources: Vec<NodeId> = distinct_nodes(&net, &picks);
        let ms = multi_source(&net, &sources);
        let trees: Vec<_> = sources.iter().map(|&s| sssp(&net, s)).collect();
        for v in net.nodes() {
            let best = trees.iter().map(|t| t.dist[v.index()]).min().unwrap();
            prop_assert_eq!(ms.dist[v.index()], best);
            prop_assert_eq!(trees[ms.owner[v.index()] as usize].dist[v.index()], best);
        }
    }

    #[test]
    fn forest_maintenance_equals_rebuild(
        net in arb_network(),
        picks in proptest::collection::vec(0usize..24, 1..4),
        updates in proptest::collection::vec((0usize..24, 0u8..4, 1u32..40), 1..12),
    ) {
        let mut net = net;
        let hosts: Vec<NodeId> = distinct_nodes(&net, &picks);
        let objects = ObjectSet::from_nodes(&net, hosts);
        let mut forest = SpanningForest::build(&net, &objects);
        let mut removed: Vec<(NodeId, NodeId, Dist)> = Vec::new();
        for (pick, kind, w) in updates {
            let u = NodeId((pick % net.num_nodes()) as u32);
            let nbrs: Vec<_> = net
                .neighbors(u)
                .filter(|&(_, _, ew)| ew != INFINITY)
                .collect();
            match kind {
                0 | 1 if !nbrs.is_empty() => {
                    let (_, v, _) = nbrs[pick % nbrs.len()];
                    forest.update_edge(&mut net, u, v, w);
                }
                2 if !nbrs.is_empty() => {
                    let (_, v, old) = nbrs[pick % nbrs.len()];
                    // Never disconnect an object from everything: a removal
                    // is fine (INFINITY dists are legal), just do it.
                    forest.update_edge(&mut net, u, v, INFINITY);
                    removed.push((u, v, old));
                }
                _ => {
                    if let Some((a, b, old)) = removed.pop() {
                        forest.update_edge(&mut net, a, b, old);
                    }
                }
            }
        }
        // Maintained distances equal a rebuild's.
        let fresh = SpanningForest::build(&net, &objects);
        for o in objects.objects() {
            prop_assert_eq!(&forest.tree(o).dist, &fresh.tree(o).dist);
        }
    }

    /// Random increase / decrease / remove / re-insert sequences, removals
    /// of the only bridge (and of ring edges) included: after every step the
    /// forest validates against fresh Dijkstras, and the returned delta is
    /// exactly the diff of before/after `(dist, parent)` snapshots — nothing
    /// missing, nothing spurious, no node twice — with work counters that
    /// cover it.
    #[test]
    fn forest_delta_equals_snapshot_diff(
        (net, bridge) in arb_bridged_network(),
        picks in proptest::collection::vec(0usize..20, 1..5),
        updates in proptest::collection::vec((0usize..20, 0u8..6, 1u32..40), 1..16),
    ) {
        let mut net = net;
        let hosts: Vec<NodeId> = distinct_nodes(&net, &picks);
        let objects = ObjectSet::from_nodes(&net, hosts);
        let mut forest = SpanningForest::build(&net, &objects);
        let mut removed: Vec<(NodeId, NodeId, Dist)> = Vec::new();
        for (pick, kind, w) in updates {
            let u = NodeId((pick % net.num_nodes()) as u32);
            let live: Vec<_> = net
                .neighbors(u)
                .filter(|&(_, _, ew)| ew != INFINITY)
                .collect();
            let (a, b, new_w) = match kind {
                // Toggle the bridge: disconnect, or reconnect.
                0 if net.edge_weight(bridge.0, bridge.1) == Some(INFINITY) => bridge,
                0 => (bridge.0, bridge.1, INFINITY),
                1 => match removed.pop() {
                    Some(edge) => edge,
                    None => continue,
                },
                _ if live.is_empty() => continue,
                2 => {
                    let (_, v, old) = live[pick % live.len()];
                    removed.push((u, v, old));
                    (u, v, INFINITY)
                }
                _ => (u, live[pick % live.len()].1, w),
            };
            let before: Vec<_> = objects
                .objects()
                .map(|o| (forest.tree(o).dist.clone(), forest.tree(o).parent.clone()))
                .collect();
            let delta = forest.update_edge(&mut net, a, b, new_w);
            prop_assert_eq!(forest.validate(&net, &objects), Ok(()));
            prop_assert!(delta.per_object.windows(2).all(|w| w[0].object < w[1].object));
            for o in objects.objects() {
                let (old_dist, old_parent) = &before[o.index()];
                let tree = forest.tree(o);
                let want: Vec<(NodeId, Dist, Dist)> = net
                    .nodes()
                    .filter(|v| {
                        tree.dist[v.index()] != old_dist[v.index()]
                            || tree.parent[v.index()] != old_parent[v.index()]
                    })
                    .map(|v| (v, old_dist[v.index()], tree.dist[v.index()]))
                    .collect();
                let td = delta.per_object.iter().find(|td| td.object == o);
                let mut got = td.map_or_else(Vec::new, |td| td.changed.clone());
                got.sort_unstable();
                prop_assert_eq!(&got, &want, "delta of tree {} after ({}, {}) -> {}", o, a, b, new_w);
                if let Some(td) = td {
                    prop_assert!(!got.is_empty(), "empty delta reported for tree {}", o);
                    prop_assert!(got.len() <= td.nodes_reset && td.nodes_reset <= td.nodes_visited);
                }
            }
        }
    }
}
