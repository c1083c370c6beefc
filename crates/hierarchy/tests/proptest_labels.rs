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
//! in reverse contraction order, must yield the very same arrays. And the
//! repairs are pinned to the builders: through chains of re-weightings,
//! removals and re-insertions, `ContractionHierarchy::repaired` keeps the
//! order and answers like Dijkstra, and `HubLabels::repaired` over it is
//! `HubLabels::build` of it, which is the pruned-landmark labelling again.
//! Every one of these runs on narrow (`u16`) and wide (`u32`) distance
//! columns: the weights × 10,000 networks push label distances past
//! 65,535, and must scale every answer by exactly that factor. The
//! branch-light merge is pinned to the three-way merge it replaced, entry
//! counts included.

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
    arb_clusters(max_w).prop_map(|(net, _)| net)
}

/// [`arb_network_with`] plus the size of the first cluster: an edge joins
/// the clusters iff exactly one endpoint's id is below it.
fn arb_clusters(max_w: u32) -> impl Strategy<Value = (RoadNetwork, usize)> {
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
            (b.build(), n1)
        })
}

/// `net` with every finite weight multiplied by `factor`.
fn scaled(net: &RoadNetwork, factor: Dist) -> RoadNetwork {
    let mut out = net.clone();
    for u in net.nodes() {
        for (_, v, w) in net.neighbors(u) {
            if u < v && w != INFINITY {
                out.set_edge_weight(u, v, w * factor);
            }
        }
    }
    out
}

/// The three-way branching merge `HubLabels::p2p_counted` replaced: the
/// reference for its distance and its entry count.
fn branching_merge(hl: &HubLabels, s: NodeId, t: NodeId) -> (Dist, u64) {
    let a: Vec<(NodeId, Dist)> = hl.label_of(s).collect();
    let b: Vec<(NodeId, Dist)> = hl.label_of(t).collect();
    let mut best = INFINITY;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                best = best.min(dist_add(a[i].1, b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    (best, (i + j) as u64)
}

/// `HubLabels::build` over a hierarchy of `net` against
/// `HubLabels::build_pruned` over `net`'s adjacency with the hierarchy's
/// order reversed (hub-first): same hubs, same distances, node by node.
fn check_build_matches_pruned_landmarks(net: &RoadNetwork, cfg: &ChConfig) -> Result<(), String> {
    let ch = ContractionHierarchy::build(net, cfg);
    check_labels_match_pruned_landmarks(net, &ch, &HubLabels::build(&ch))
        .map_err(|e| format!("witness cap {}: {e}", cfg.witness_cap))
}

/// `hl` against the pruned-landmark labelling of `net` in `ch`'s order.
fn check_labels_match_pruned_landmarks(
    net: &RoadNetwork,
    ch: &ContractionHierarchy,
    hl: &HubLabels,
) -> Result<(), String> {
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
        if !hl.label_of(v).eq(pll.label_of(v)) {
            return Err(format!(
                "label of {v}: top-down {:?} vs pruned landmarks {:?}",
                hl.label_of(v).collect::<Vec<_>>(),
                pll.label_of(v).collect::<Vec<_>>()
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

/// One network edit of a repair chain, drawn blind and resolved against
/// the network as it stands: `edge` picks among all edges, removed ones
/// included.
#[derive(Clone, Copy, Debug)]
enum Edit {
    /// Re-weight the picked edge to `w` (an increase, a decrease or a
    /// re-insertion, whatever the edge held).
    Set { edge: usize, w: Dist },
    /// Remove the picked edge.
    Remove { edge: usize },
    /// Remove every edge between the two clusters, or with a single cluster
    /// every edge of the picked edge's first endpoint: a piece of the
    /// network becomes unreachable.
    Sever { edge: usize },
}

fn arb_edit(max_w: u32) -> impl Strategy<Value = Edit> {
    (0u8..7, 0usize..200, 1u32..max_w).prop_map(|(kind, edge, w)| match kind {
        0..=3 => Edit::Set { edge, w },
        4 | 5 => Edit::Remove { edge },
        _ => Edit::Sever { edge },
    })
}

/// Apply `edit` to `net`, appending `(a, b, weight before)` per edge
/// touched to `log` — the contract of `ContractionHierarchy::repaired`.
fn apply_edit(net: &mut RoadNetwork, n1: usize, edit: Edit, log: &mut Vec<(NodeId, NodeId, Dist)>) {
    let edges: Vec<(NodeId, NodeId)> = net
        .nodes()
        .flat_map(|u| net.neighbors(u).map(move |(_, v, _)| (u, v)))
        .filter(|&(u, v)| u < v)
        .collect();
    if edges.is_empty() {
        return;
    }
    let mut set = |a: NodeId, b: NodeId, w: Dist| log.push((a, b, net.set_edge_weight(a, b, w)));
    match edit {
        Edit::Set { edge, w } => {
            let (a, b) = edges[edge % edges.len()];
            set(a, b, w);
        }
        Edit::Remove { edge } => {
            let (a, b) = edges[edge % edges.len()];
            set(a, b, INFINITY);
        }
        Edit::Sever { edge } => {
            let pivot = edges[edge % edges.len()].0;
            let bridges = |&(a, b): &(NodeId, NodeId)| a.index() < n1 && b.index() >= n1;
            let cut: Vec<_> = if edges.iter().any(bridges) {
                edges.iter().copied().filter(bridges).collect()
            } else {
                let at_pivot = |&(a, b): &(NodeId, NodeId)| a == pivot || b == pivot;
                edges.iter().copied().filter(at_pivot).collect()
            };
            for (a, b) in cut {
                set(a, b, INFINITY);
            }
        }
    }
}

/// One repair step checked against every oracle: the repaired hierarchy
/// keeps `ch`'s order and answers `p2p` like Dijkstra from each of
/// `sources`; the repaired labels equal `HubLabels::build` of it and the
/// pruned-landmark labelling of `net` in that order. Returns the pair.
fn check_repair(
    net: &RoadNetwork,
    ch: &ContractionHierarchy,
    hl: &HubLabels,
    log: &[(NodeId, NodeId, Dist)],
    sources: impl Iterator<Item = NodeId>,
) -> Result<(ContractionHierarchy, HubLabels), String> {
    let (new_ch, recontracted) = ch.repaired(net, log);
    if new_ch.order() != ch.order() {
        return Err("the repair changed the contraction order".into());
    }
    let mut ws = ChWorkspace::new();
    for s in sources {
        let tree = sssp(net, s);
        for t in net.nodes() {
            let (got, want) = (new_ch.p2p(s, t, &mut ws), tree.dist[t.index()]);
            if got != want {
                return Err(format!("repaired p2p({s}, {t}) = {got}, dijkstra {want}"));
            }
        }
    }
    let (new_hl, work) = hl.repaired(ch, &new_ch);
    if new_hl != HubLabels::build(&new_ch) {
        return Err(format!("repaired labels differ from a build after {log:?}"));
    }
    check_labels_match_pruned_landmarks(net, &new_ch, &new_hl)?;
    let n = net.num_nodes();
    if !(work.changed <= work.rebuilt && work.rebuilt <= n && recontracted <= n) {
        return Err(format!(
            "work counts out of range: {recontracted}, {work:?}"
        ));
    }
    Ok((new_ch, new_hl))
}

#[test]
fn repairs_match_rebuilds_on_a_planar_network() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    let base = dsi_graph::generate::random_planar(
        &dsi_graph::generate::PlanarConfig {
            num_nodes: 1_500,
            ..Default::default()
        },
        &mut rng,
    );
    let n = base.num_nodes();
    for cfg in witness_caps() {
        let mut net = base.clone();
        let mut ch = ContractionHierarchy::build(&net, &cfg);
        let mut hl = HubLabels::build(&ch);
        for step in 0..8 {
            // Six edits a step: re-weightings, a removal, and from step 4
            // on the re-insertion of what step - 4 removed.
            let mut log = Vec::new();
            for i in 0..6 {
                let edit = match i {
                    0 => Edit::Remove { edge: step * 97 },
                    1 if step >= 4 => Edit::Set {
                        edge: (step - 4) * 97,
                        w: 2,
                    },
                    _ => Edit::Set {
                        edge: rng.gen_range(0..4 * n),
                        w: rng.gen_range(1..=40),
                    },
                };
                apply_edit(&mut net, n, edit, &mut log);
            }
            let sources = (0..n as u32).step_by(301).map(NodeId);
            (ch, hl) = check_repair(&net, &ch, &hl, &log, sources).unwrap();
        }
    }
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
    /// shortcuts are tight or not, and with every weight × 10,000.
    #[test]
    fn build_matches_pruned_landmarks(net in arb_network_with(3), wide in arb_network()) {
        for cfg in witness_caps() {
            for net in [&net, &wide, &scaled(&net, 10_000), &scaled(&wide, 10_000)] {
                prop_assert_eq!(check_build_matches_pruned_landmarks(net, &cfg), Ok(()));
            }
        }
    }

    /// The branch-light merge takes the steps of the three-way merge it
    /// replaced: the same distance and the same entry count on every pair,
    /// tie-heavy and wide-weight networks alike, both distance widths.
    #[test]
    fn p2p_counted_equals_the_branching_merge(net in arb_network_with(3), wide in arb_network()) {
        for net in [net.clone(), wide.clone(), scaled(&net, 10_000), scaled(&wide, 10_000)] {
            let hl = HubLabels::build(&ContractionHierarchy::build(&net, &ChConfig::default()));
            for s in net.nodes() {
                for t in net.nodes() {
                    prop_assert_eq!(hl.p2p_counted(s, t), branching_merge(&hl, s, t), "({}, {})", s, t);
                }
            }
        }
    }

    /// Metamorphic: every weight × 10,000 gives the same labels hub for
    /// hub with every distance × 10,000 — past 65,535 the distance column
    /// goes `u32`, and `label_bytes` says so — and every answer scales by
    /// the same factor with the same entry count: `p2p`, `one_to_many`,
    /// `scan_within` (bounds scaled) and `knn`.
    #[test]
    fn wide_distances_scale_every_answer(
        net in arb_network_with(3),
        picks in proptest::collection::vec(0usize..28, 0..10),
        mid in 0u32..12,
        k_mid in 2usize..6,
    ) {
        const F: Dist = 10_000;
        let up = |d: Dist| if d == INFINITY { INFINITY } else { d * F };
        let (hl, targets) = labels_and_targets(&net, &picks);
        let (wl, _) = labels_and_targets(&scaled(&net, F), &picks);
        let (n, entries) = (net.num_nodes(), hl.num_entries());
        prop_assert_eq!(hl.label_bytes(), 4 * (n + 1) + 4 * entries);
        let top = net.nodes().flat_map(|v| wl.label_of(v)).map(|(_, d)| d).max().unwrap_or(0);
        let dist_bytes = if top > u16::MAX as Dist { 4 } else { 2 };
        prop_assert_eq!(wl.label_bytes(), 4 * (n + 1) + (2 + dist_bytes) * entries);
        for v in net.nodes() {
            prop_assert!(wl.label_of(v).eq(hl.label_of(v).map(|(h, d)| (h, up(d)))), "label of {}", v);
        }
        for s in net.nodes() {
            for t in net.nodes() {
                let (d, c) = hl.p2p_counted(s, t);
                prop_assert_eq!(wl.p2p_counted(s, t), (up(d), c), "p2p({}, {})", s, t);
            }
        }
        let (hb, wb) = (hl.buckets(&targets), wl.buckets(&targets));
        let (mut dists, mut wide_dists) = (Vec::new(), Vec::new());
        let (mut scratch, mut out, mut wide_out) = (Vec::new(), Vec::new(), Vec::new());
        let scale = |out: &[(Dist, u32)]| out.iter().map(|&(d, r)| (up(d), r)).collect::<Vec<_>>();
        for s in net.nodes() {
            let c = hl.one_to_many(s, &hb, &mut dists);
            prop_assert_eq!(wl.one_to_many(s, &wb, &mut wide_dists), c);
            prop_assert_eq!(&wide_dists, &dists.iter().map(|&d| up(d)).collect::<Vec<_>>());
            for (bound, wide_bound) in [(0, 0), (mid, mid * F), (INFINITY - 1, INFINITY - 1), (INFINITY, INFINITY)] {
                let c = hl.scan_within(s, &hb, bound, &mut scratch, &mut out);
                prop_assert_eq!(wl.scan_within(s, &wb, wide_bound, &mut scratch, &mut wide_out), c);
                prop_assert_eq!(&wide_out, &scale(&out), "scan_within({}, {})", s, bound);
            }
            for k in [0, 1, k_mid, targets.len(), targets.len() + 3] {
                let c = hl.knn(s, &hb, k, &mut scratch, &mut out);
                prop_assert_eq!(wl.knn(s, &wb, k, &mut scratch, &mut wide_out), c);
                prop_assert_eq!(&wide_out, &scale(&out), "knn({}, k = {})", s, k);
            }
        }
    }

    /// Repaired ≡ rebuilt after every step of a chain of at least six, on
    /// tie-heavy and wide-weight networks at every witness cap, the latter
    /// also with every weight × 10,000 (wide distance columns, which the
    /// chain's small re-weightings may narrow): increases, decreases,
    /// removals (some disconnecting), re-insertions. One step in four
    /// applies two edits before repairing, as a writer that fell behind
    /// would — the same edge may then be logged twice.
    #[test]
    fn repaired_equals_rebuilt_through_edit_chains(
        (tight, tight_n1) in arb_clusters(3),
        (wide, wide_n1) in arb_clusters(40),
        tight_steps in proptest::collection::vec((arb_edit(3), arb_edit(3), 0u8..4), 6..10),
        wide_steps in proptest::collection::vec((arb_edit(40), arb_edit(40), 0u8..4), 6..10),
    ) {
        let scaled_wide = scaled(&wide, 10_000);
        for cfg in witness_caps() {
            for (net, n1, steps) in [
                (&tight, tight_n1, &tight_steps),
                (&wide, wide_n1, &wide_steps),
                (&scaled_wide, wide_n1, &wide_steps),
            ] {
                let mut net = net.clone();
                let mut ch = ContractionHierarchy::build(&net, &cfg);
                let mut hl = HubLabels::build(&ch);
                for &(edit, second, both) in steps {
                    let mut log = Vec::new();
                    apply_edit(&mut net, n1, edit, &mut log);
                    if both == 0 {
                        apply_edit(&mut net, n1, second, &mut log);
                    }
                    let checked = check_repair(&net, &ch, &hl, &log, net.nodes());
                    prop_assert!(checked.is_ok(), "cap {}: {}", cfg.witness_cap, checked.unwrap_err());
                    (ch, hl) = checked.unwrap();
                }
            }
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
            let label: Vec<(NodeId, Dist)> = hl.label_of(v).collect();
            prop_assert!(label.windows(2).all(|w| w[0].0 < w[1].0), "hubs of {} unsorted", v);
            let self_at = label.binary_search_by_key(&v, |&(h, _)| h);
            prop_assert!(self_at.is_ok(), "{} missing its self entry", v);
            prop_assert_eq!(label[self_at.unwrap()].1, 0, "self entry of {} nonzero", v);
            for &(h, d) in &label {
                if h == v {
                    continue;
                }
                let of_h: Vec<(NodeId, Dist)> = hl.label_of(h).collect();
                let mut alt = INFINITY;
                for &(x, dx) in label.iter().filter(|&&(x, _)| x != h) {
                    if let Ok(i) = of_h.binary_search_by_key(&x, |&(y, _)| y) {
                        alt = alt.min(dist_add(dx, of_h[i].1));
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
                prop_assert!(scanned >= hl.label_of(s).len() as u64);
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
