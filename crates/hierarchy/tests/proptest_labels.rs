//! Property tests pinning the hub-label oracle to ground truth: on random
//! (possibly disconnected) networks, a label merge must equal both the
//! contraction-hierarchy p2p search and plain Dijkstra for every sampled
//! pair — including unreachable pairs, where all three agree on
//! [`INFINITY`] — and every built label must satisfy the canonicality
//! invariant (sorted hubs, a zero-distance self entry, no entry prunable
//! through another shared hub). The bucket primitives are pinned to the
//! same merges: a bounded scan is exactly `{t : p2p(s, t) ≤ bound}`, the
//! bucket kNN exactly sort-everything-then-truncate, ties at the cut
//! included. The top-down builder itself is pinned to an independent
//! construction: pruned-landmark labelling over the plain adjacency, hubs
//! in reverse contraction order, must yield the very same arrays.

use dsi_graph::ids::dist_add;
use dsi_graph::{sssp, Dist, NetworkBuilder, NodeId, Point, RoadNetwork, INFINITY};
use dsi_hierarchy::{ChConfig, ChWorkspace, ContractionHierarchy, HubLabels};
use proptest::prelude::*;

/// One or two ring-with-chords clusters, bridged by zero or more extra
/// edges. With two clusters and no bridges the network is disconnected —
/// the case where the oracle must answer `INFINITY`, never a junk merge.
fn arb_network() -> impl Strategy<Value = RoadNetwork> {
    arb_network_with(40)
}

/// [`arb_network`] with every edge weight drawn from `1..max_w`: a narrow
/// range (`max_w = 3`) packs the distance spectrum with ties, so a kNN cut
/// almost always lands inside a group of equidistant targets.
fn arb_network_with(max_w: u32) -> impl Strategy<Value = RoadNetwork> {
    (
        3usize..14,
        0usize..14,
        proptest::collection::vec((0usize..28, 0usize..28, 1u32..max_w), 0..24),
        proptest::collection::vec(1u32..max_w, 28),
        proptest::collection::vec((0usize..28, 0usize..28, 1u32..max_w), 0..3),
    )
        .prop_map(|(n1, n2, chords, ring_w, bridges)| {
            let mut b = NetworkBuilder::new();
            let n = n1 + n2;
            let ids: Vec<NodeId> = (0..n)
                .map(|i| b.add_node(Point::new(i as f64, (i * i % 5) as f64)))
                .collect();
            let mut ring = |lo: usize, len: usize| {
                if len < 2 {
                    return;
                }
                for i in 0..len {
                    let (u, v) = (ids[lo + i], ids[lo + (i + 1) % len]);
                    if u != v && !b.has_edge(u, v) {
                        b.add_edge(u, v, ring_w[lo + i]);
                    }
                }
            };
            ring(0, n1);
            ring(n1, n2);
            // Chords stay inside their cluster so only `bridges` connect.
            for (u, v, w) in chords {
                let (u, v) = if u % 2 == 0 || n2 == 0 {
                    (u % n1, v % n1)
                } else {
                    (n1 + u % n2, n1 + v % n2)
                };
                if u != v && !b.has_edge(ids[u], ids[v]) {
                    b.add_edge(ids[u], ids[v], w);
                }
            }
            if n2 > 0 {
                // An empty bridge set leaves the two clusters disconnected.
                for (u, v, w) in bridges {
                    let (u, v) = (u % n1, n1 + v % n2);
                    if !b.has_edge(ids[u], ids[v]) {
                        b.add_edge(ids[u], ids[v], w);
                    }
                }
            }
            b.build()
        })
}

/// `HubLabels::build` over a hierarchy of `net` against
/// `HubLabels::build_pruned` over `net`'s adjacency with the hierarchy's
/// order reversed (hub-first): same hubs, same distances, node by node.
fn check_build_matches_pruned_landmarks(net: &RoadNetwork, cfg: &ChConfig) -> Result<(), String> {
    let ch = ContractionHierarchy::build(net, cfg);
    let hl = HubLabels::build(&ch);
    let adj: Vec<Vec<(NodeId, Dist)>> = net
        .nodes()
        .map(|u| {
            net.neighbors(u)
                .filter(|&(_, _, w)| w != INFINITY)
                .map(|(_, v, w)| (v, w))
                .collect()
        })
        .collect();
    let hub_first: Vec<NodeId> = ch.order().iter().rev().copied().collect();
    let pll = HubLabels::build_pruned(&adj, &hub_first);
    for v in net.nodes() {
        if hl.label_of(v) != pll.label_of(v) {
            return Err(format!(
                "label of {v} (witness cap {}): top-down {:?} vs pruned landmarks {:?}",
                cfg.witness_cap,
                hl.label_of(v),
                pll.label_of(v)
            ));
        }
    }
    Ok(())
}

/// Caps 1 and 3 truncate almost every witness search, so the hierarchy is
/// full of shortcuts longer than the distance they span.
fn witness_caps() -> [ChConfig; 3] {
    let default = ChConfig::default();
    [1, 3, default.witness_cap].map(|witness_cap| ChConfig {
        witness_cap,
        ..default
    })
}

#[test]
fn build_matches_pruned_landmarks_on_a_planar_network() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(18);
    let net = dsi_graph::generate::random_planar(
        &dsi_graph::generate::PlanarConfig {
            num_nodes: 1_500,
            ..Default::default()
        },
        &mut rng,
    );
    for cfg in witness_caps() {
        check_build_matches_pruned_landmarks(&net, &cfg).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The top-down builder equals the pruned-landmark oracle on tie-heavy
    /// (weights 1–2), possibly disconnected networks, whether the hierarchy's
    /// shortcuts are tight or not.
    #[test]
    fn build_matches_pruned_landmarks(net in arb_network_with(3), wide in arb_network()) {
        for cfg in witness_caps() {
            prop_assert_eq!(check_build_matches_pruned_landmarks(&net, &cfg), Ok(()));
            prop_assert_eq!(check_build_matches_pruned_landmarks(&wide, &cfg), Ok(()));
        }
    }

    /// Three oracles, one answer: label merge == CH p2p == Dijkstra on
    /// every (source, target) pair, reachable or not.
    #[test]
    fn label_merge_matches_ch_and_dijkstra(net in arb_network(), src in 0usize..28) {
        let ch = ContractionHierarchy::build(&net, &ChConfig::default());
        let hl = HubLabels::build(&ch);
        let mut ws = ChWorkspace::new();
        let s = NodeId((src % net.num_nodes()) as u32);
        let tree = sssp(&net, s);
        for t in net.nodes() {
            let want = tree.dist[t.index()];
            prop_assert_eq!(hl.p2p(s, t), want, "labels vs dijkstra at ({}, {})", s, t);
            prop_assert_eq!(ch.p2p(s, t, &mut ws), want, "ch vs dijkstra at ({}, {})", s, t);
        }
    }

    /// Built labels are canonical: hubs strictly ascending, a `(v, 0)`
    /// self entry, and no entry covered by a two-hop route through any
    /// *other* hub the two labels share.
    #[test]
    fn labels_are_canonical(net in arb_network()) {
        let ch = ContractionHierarchy::build(&net, &ChConfig::default());
        let hl = HubLabels::build(&ch);
        for v in net.nodes() {
            let (hs, ds) = hl.label_of(v);
            prop_assert!(hs.windows(2).all(|w| w[0] < w[1]), "hubs of {} unsorted", v);
            let self_at = hs.binary_search(&v);
            prop_assert!(self_at.is_ok(), "{} missing its self entry", v);
            prop_assert_eq!(ds[self_at.unwrap()], 0, "self entry of {} nonzero", v);
            for (&h, &d) in hs.iter().zip(ds) {
                if h == v {
                    continue;
                }
                let (hh, hd) = hl.label_of(h);
                let mut alt = INFINITY;
                for (&x, &dx) in hs.iter().zip(ds) {
                    if x == h {
                        continue;
                    }
                    if let Ok(i) = hh.binary_search(&x) {
                        alt = alt.min(dist_add(dx, hd[i]));
                    }
                }
                prop_assert!(alt > d, "entry ({}, {}) of {} prunable via {}", h, d, v, alt);
            }
        }
    }

    /// The one-to-many bucket scan returns exactly the pairwise merges,
    /// and every bucket row it walks is distance-ascending.
    #[test]
    fn one_to_many_matches_pairwise(net in arb_network(), picks in proptest::collection::vec(0usize..28, 1..8)) {
        let (hl, targets) = labels_and_targets(&net, &picks);
        let buckets = hl.buckets(&targets);
        prop_assert_eq!(buckets.num_targets(), targets.len());
        for h in net.nodes() {
            let row = buckets.row(h);
            prop_assert!(
                row.windows(2).all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)),
                "row of {} not (dist, rank)-ascending: {:?}", h, row
            );
            for &(rank, d) in row {
                prop_assert_eq!(hl.p2p(h, targets[rank as usize]), d, "row entry of {}", h);
            }
        }
        let mut out = Vec::new();
        for s in net.nodes() {
            hl.one_to_many(s, &buckets, &mut out);
            for (i, &t) in targets.iter().enumerate() {
                prop_assert_eq!(out[i], hl.p2p(s, t), "one-to-many ({}, {})", s, t);
            }
        }
    }

    /// A bounded scan is exactly `{t : p2p(s, t) ≤ bound}` with exact
    /// distances, each target once — at bound 0, mid-range, `INFINITY - 1`
    /// and `INFINITY` (where unreachable targets still never qualify) —
    /// and hands its scratch back all-`INFINITY`. The target set may be
    /// empty, span both components, and contain `s` itself.
    #[test]
    fn scan_within_matches_filtered_merges(
        net in arb_network_with(3),
        picks in proptest::collection::vec(0usize..28, 0..10),
        mid in 0u32..12,
    ) {
        let (hl, targets) = labels_and_targets(&net, &picks);
        let buckets = hl.buckets(&targets);
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        for s in net.nodes() {
            for bound in [0, mid, INFINITY - 1, INFINITY] {
                let scanned = hl.scan_within(s, &buckets, bound, &mut scratch, &mut out);
                prop_assert!(scanned >= hl.label_of(s).0.len() as u64);
                prop_assert!(scratch.iter().all(|&d| d == INFINITY), "scratch left dirty");
                prop_assert_eq!(scratch.len(), targets.len());
                out.sort_unstable_by_key(|&(d, rank)| (rank, d));
                let want: Vec<(Dist, u32)> = targets
                    .iter()
                    .enumerate()
                    .map(|(rank, &t)| (hl.p2p(s, t), rank as u32))
                    .filter(|&(d, _)| d != INFINITY && d <= bound)
                    .collect();
                prop_assert_eq!(&out, &want, "scan_within({}, bound {})", s, bound);
            }
        }
    }

    /// The bucket kNN is element-wise the sort-all-by-`(dist, rank)`-and-
    /// truncate answer for k = 0, 1, |targets| and past it, on tie-heavy
    /// networks (the cut lands inside an equidistant group and must keep
    /// the lower ranks), across disconnected components, with an empty
    /// target set, and with `s` among the targets.
    #[test]
    fn bucket_knn_matches_sort_and_truncate(
        net in arb_network_with(3),
        picks in proptest::collection::vec(0usize..28, 0..10),
        k_mid in 2usize..6,
    ) {
        let (hl, targets) = labels_and_targets(&net, &picks);
        let buckets = hl.buckets(&targets);
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        for s in net.nodes() {
            let mut all: Vec<(Dist, u32)> = targets
                .iter()
                .enumerate()
                .map(|(rank, &t)| (hl.p2p(s, t), rank as u32))
                .filter(|&(d, _)| d != INFINITY)
                .collect();
            all.sort_unstable();
            for k in [0, 1, k_mid, targets.len(), targets.len() + 3] {
                hl.knn(s, &buckets, k, &mut scratch, &mut out);
                prop_assert!(scratch.iter().all(|&d| d == INFINITY), "scratch left dirty");
                prop_assert_eq!(&out[..], &all[..k.min(all.len())], "knn({}, k = {})", s, k);
            }
        }
    }
}

/// Labels of `net` plus a target list picked from its nodes. Repeats stay
/// in: two ranks on one node are two equidistant targets, one more tie.
fn labels_and_targets(net: &RoadNetwork, picks: &[usize]) -> (HubLabels, Vec<NodeId>) {
    let ch = ContractionHierarchy::build(net, &ChConfig::default());
    let targets = picks
        .iter()
        .map(|&p| NodeId((p % net.num_nodes()) as u32))
        .collect();
    (HubLabels::build(&ch), targets)
}
