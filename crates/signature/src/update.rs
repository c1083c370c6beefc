//! Signature maintenance under edge updates (§5.4).
//!
//! The maintainer owns the per-object shortest-path spanning trees (the
//! construction intermediates the paper keeps) and, on an edge update,
//! repairs them via [`SpanningForest::update_edge`], then patches exactly
//! the signature entries whose **category or backtracking link changed** —
//! "the updates on n are aggregated and only the changes on distance
//! category or backtracking link are updated in the signature".
//!
//! Edge removals may temporarily disconnect parts of the network. Nodes cut
//! off from an object keep an `INFINITY` spanning-tree distance, which
//! categorizes into the open-ended last category — range and kNN pruning
//! stay sound — but *exact* retrieval of an unreachable object is undefined
//! (its backtracking chain no longer terminates and the session asserts).
//! The paper assumes a connected network (§5.2); restore connectivity
//! before exact queries on affected objects.
//!
//! One correctness subtlety beyond the paper's description: compression
//! (§5.3) resolves a flagged entry `v` through the object↔object distance
//! `d(u, v)` of its link anchor `u`. If an update changes the *category* of
//! an object pair, nodes whose signature compressed against that pair must
//! be re-encoded even though their own distances did not change. The
//! maintainer detects category-changing pairs (they only arise when a node
//! hosting an object appears in the update delta) and re-encodes dependent
//! nodes; this is the rare, expensive path and is reported separately.

use std::collections::HashMap;

use dsi_graph::network::Slot;
use dsi_graph::spanning::SpanningForest;
use dsi_graph::{Dist, NodeId, ObjectId, ObjectSet, RoadNetwork};

use crate::index::SignatureIndex;

/// What one edge update cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Signature entries whose category or link actually changed.
    pub entries_changed: usize,
    /// Node signatures re-encoded (≥ nodes with changed entries).
    pub nodes_reencoded: usize,
    /// Disk pages covered by the rewritten records.
    pub pages_touched: u64,
    /// Spanning trees affected by the update.
    pub objects_affected: usize,
    /// Extra nodes re-encoded only because an object-pair category changed
    /// under their compressed entries.
    pub compression_rescans: usize,
    /// Spanning-tree nodes whose label the forest repair recomputed, summed
    /// over the affected trees ([`dsi_graph::spanning::TreeDelta::nodes_reset`]).
    pub tree_nodes_reset: usize,
    /// Spanning-tree nodes the repair looked at, summed likewise — the work
    /// counter that stays within a degree factor of `tree_nodes_reset`
    /// however large the network is.
    pub tree_nodes_visited: usize,
}

/// Owns the spanning forest and keeps a [`SignatureIndex`] consistent with
/// network updates.
pub struct SignatureMaintainer {
    forest: SpanningForest,
}

impl SignatureMaintainer {
    /// Build the maintenance state (one Dijkstra per object — the same
    /// trees the index construction used).
    pub fn new(net: &RoadNetwork, objects: &ObjectSet) -> Self {
        SignatureMaintainer {
            forest: SpanningForest::build(net, objects),
        }
    }

    /// The maintained spanning forest.
    pub fn forest(&self) -> &SpanningForest {
        &self.forest
    }

    /// Apply an edge-weight update (insert = from `INFINITY`, remove = to
    /// `INFINITY`) to the network, the forest, and the signature index.
    pub fn update_edge(
        &mut self,
        net: &mut RoadNetwork,
        index: &mut SignatureIndex,
        a: NodeId,
        b: NodeId,
        new_w: Dist,
    ) -> UpdateReport {
        let delta = self.forest.update_edge(net, a, b, new_w);
        let mut report = UpdateReport {
            objects_affected: delta.per_object.len(),
            tree_nodes_reset: delta.nodes_reset(),
            tree_nodes_visited: delta.nodes_visited(),
            ..Default::default()
        };
        if delta.per_object.is_empty() {
            return report;
        }
        let part = index.partition().clone();
        let last_cat = (part.num_categories() - 1) as u8;

        // Group the per-tree changes by node and collect object-pair
        // distance changes (a changed node that hosts an object).
        let mut per_node: HashMap<NodeId, Vec<(ObjectId, Dist)>> = HashMap::new();
        let mut pair_updates: Vec<(ObjectId, ObjectId, Dist, u8, u8)> = Vec::new();
        for td in &delta.per_object {
            for &(v, old_d, new_d) in &td.changed {
                per_node.entry(v).or_default().push((td.object, new_d));
                if let Some(host_obj) = index.object_at(v) {
                    if host_obj != td.object {
                        let (oc, nc) = (part.category_of(old_d), part.category_of(new_d));
                        pair_updates.push((td.object, host_obj, new_d, oc, nc));
                    }
                }
            }
        }

        // Category-changing pairs endanger compressed entries elsewhere.
        let changed_pairs: std::collections::HashSet<(u32, u32)> = pair_updates
            .iter()
            .filter(|&&(_, _, _, oc, nc)| oc != nc)
            .flat_map(|&(x, y, _, _, _)| [(x.0, y.0), (y.0, x.0)])
            .collect();

        // Phase A: decode, with the *old* object-distance table, every node
        // we may re-encode: the delta nodes, plus (if pair categories
        // changed) any node whose compressed entries resolve through a
        // changed pair. Dependent nodes must be re-encoded even if none of
        // their own entries changed.
        let mut resolved: HashMap<NodeId, (Vec<u8>, Vec<Slot>)> = HashMap::new();
        let mut force_reencode: std::collections::HashSet<NodeId> =
            std::collections::HashSet::new();
        for &v in per_node.keys() {
            let sig = index.decode_node(v);
            resolved.insert(v, (sig.cats, sig.links));
        }
        if !changed_pairs.is_empty() {
            for ni in 0..index.num_nodes() {
                let v = NodeId(ni as u32);
                let sig = index.decode_node(v);
                if depends_on_pair(
                    index.scheme(),
                    &sig.cats,
                    &sig.links,
                    &sig.compressed,
                    &changed_pairs,
                ) {
                    force_reencode.insert(v);
                    if let std::collections::hash_map::Entry::Vacant(e) = resolved.entry(v) {
                        report.compression_rescans += 1;
                        e.insert((sig.cats, sig.links));
                    }
                }
            }
        }

        // Phase B: refresh the object-distance table.
        for &(x, y, new_d, _, _) in &pair_updates {
            let stored = (part.category_of(new_d) != last_cat).then_some(new_d);
            index.set_obj_dist(x, y, stored);
        }

        // Phase C: apply entry changes and re-encode.
        for (v, (cats, links)) in &mut resolved {
            let mut touched = force_reencode.contains(v);
            if let Some(changes) = per_node.get(v) {
                for &(o, new_d) in changes {
                    let nc = part.category_of(new_d);
                    let nl = self.forest.tree(o).parent_slot[v.index()];
                    if cats[o.index()] != nc || links[o.index()] != nl {
                        cats[o.index()] = nc;
                        links[o.index()] = nl;
                        report.entries_changed += 1;
                        touched = true;
                    }
                }
            }
            if touched {
                index.reencode_node(*v, cats, links);
                report.nodes_reencoded += 1;
                report.pages_touched += index.store().pages_of(v.index()).len() as u64;
            }
        }
        report
    }
}

/// Does any compressed entry of this signature resolve through one of
/// `changed_pairs` (object-id pairs, both orientations present)?
fn depends_on_pair(
    scheme: crate::compress::CompressionScheme,
    cats: &[u8],
    links: &[Slot],
    compressed: &[bool],
    changed_pairs: &std::collections::HashSet<(u32, u32)>,
) -> bool {
    if !compressed.contains(&true) {
        return false;
    }
    match scheme {
        crate::compress::CompressionScheme::PerLinkAnchor => {
            // Anchor per link among uncompressed entries — same rule as the
            // decoder.
            let mut anchor: HashMap<Slot, usize> = HashMap::new();
            for v in 0..cats.len() {
                if compressed[v] {
                    continue;
                }
                let e = anchor.entry(links[v]).or_insert(v);
                if (cats[v], v) < (cats[*e], *e) {
                    *e = v;
                }
            }
            (0..cats.len()).any(|v| {
                compressed[v]
                    && anchor
                        .get(&links[v])
                        .is_some_and(|&u| changed_pairs.contains(&(u as u32, v as u32)))
            })
        }
        crate::compress::CompressionScheme::GlobalAnchor => {
            let Some(u) = (0..cats.len())
                .filter(|&v| !compressed[v])
                .min_by_key(|&v| (cats[v], v))
            else {
                return false;
            };
            (0..cats.len()).any(|v| compressed[v] && changed_pairs.contains(&(u as u32, v as u32)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::SignatureConfig;
    use dsi_graph::generate::{random_planar, PlanarConfig};
    use dsi_graph::{sssp, INFINITY};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fixture(seed: u64) -> (RoadNetwork, ObjectSet, SignatureIndex, SignatureMaintainer) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_planar(
            &PlanarConfig {
                num_nodes: 250,
                ..Default::default()
            },
            &mut rng,
        );
        let objects = ObjectSet::uniform(&net, 0.05, &mut rng);
        let idx = SignatureIndex::build(&net, &objects, &SignatureConfig::default());
        let maint = SignatureMaintainer::new(&net, &objects);
        (net, objects, idx, maint)
    }

    /// Decoded signatures must equal a fresh rebuild after maintenance.
    fn assert_index_consistent(net: &RoadNetwork, objects: &ObjectSet, idx: &SignatureIndex) {
        let trees: Vec<_> = objects.iter().map(|(_, h)| sssp(net, h)).collect();
        for n in net.nodes() {
            let sig = idx.decode_node(n);
            for (o, host) in objects.iter() {
                let d = trees[o.index()].dist[n.index()];
                assert_eq!(
                    sig.cats[o.index()],
                    idx.partition().category_of(d),
                    "category of {o} at {n} after update"
                );
                if n != host {
                    // The stored link must descend along *a* shortest path.
                    let (next, w) = net.neighbor_at(n, sig.links[o.index()]);
                    assert_eq!(
                        trees[o.index()].dist[next.index()] + w,
                        d,
                        "link of {o} at {n} after update"
                    );
                }
            }
        }
    }

    #[test]
    fn random_updates_keep_index_consistent() {
        let (mut net, objects, mut idx, mut maint) = fixture(41);
        let mut rng = StdRng::seed_from_u64(4141);
        for round in 0..12 {
            let u = NodeId(rng.gen_range(0..net.num_nodes() as u32));
            let nbrs: Vec<_> = net.neighbors(u).collect();
            let (_, v, w) = nbrs[rng.gen_range(0..nbrs.len())];
            let new_w = match round % 3 {
                0 => w.saturating_add(6).min(INFINITY - 1),
                1 => w.max(2) - 1,
                _ => w.saturating_add(2),
            };
            maint.update_edge(&mut net, &mut idx, u, v, new_w);
        }
        assert_index_consistent(&net, &objects, &idx);
    }

    #[test]
    fn edge_removal_and_reinsertion_round_trip() {
        let (mut net, objects, mut idx, mut maint) = fixture(43);
        // Remove the most-used edge and verify, then restore and verify.
        let (a, b, w) = {
            let mut best = (NodeId(0), NodeId(1), 1, 0usize);
            for u in net.nodes() {
                for (_, v, w) in net.neighbors(u) {
                    if u < v {
                        let c = maint.forest().objects_using_edge(u, v).len();
                        if c > best.3 {
                            best = (u, v, w, c);
                        }
                    }
                }
            }
            (best.0, best.1, best.2)
        };
        let r1 = maint.update_edge(&mut net, &mut idx, a, b, INFINITY);
        assert!(r1.objects_affected > 0);
        assert_index_consistent(&net, &objects, &idx);
        let r2 = maint.update_edge(&mut net, &mut idx, a, b, w);
        assert!(r2.entries_changed > 0, "restoring must change entries back");
        assert_index_consistent(&net, &objects, &idx);
    }

    #[test]
    fn per_link_scheme_survives_updates_too() {
        let mut rng = StdRng::seed_from_u64(67);
        let mut net = random_planar(
            &PlanarConfig {
                num_nodes: 200,
                ..Default::default()
            },
            &mut rng,
        );
        let objects = ObjectSet::uniform(&net, 0.06, &mut rng);
        let cfg = SignatureConfig {
            scheme: crate::compress::CompressionScheme::PerLinkAnchor,
            ..Default::default()
        };
        let mut idx = SignatureIndex::build(&net, &objects, &cfg);
        let mut maint = SignatureMaintainer::new(&net, &objects);
        for round in 0..10 {
            let u = NodeId(rng.gen_range(0..net.num_nodes() as u32));
            let nbrs: Vec<_> = net.neighbors(u).collect();
            let (_, v, w) = nbrs[rng.gen_range(0..nbrs.len())];
            let new_w = if round % 2 == 0 { w + 5 } else { w.max(2) - 1 };
            maint.update_edge(&mut net, &mut idx, u, v, new_w);
        }
        assert_index_consistent(&net, &objects, &idx);
    }

    #[test]
    fn noop_update_reports_zero() {
        let (mut net, _, mut idx, mut maint) = fixture(47);
        let u = NodeId(0);
        let (_, v, w) = net.neighbors(u).next().unwrap();
        let r = maint.update_edge(&mut net, &mut idx, u, v, w);
        assert_eq!(r, UpdateReport::default());
    }

    #[test]
    fn update_is_local_in_entry_count() {
        // §5.4's efficiency claim: a small weight change touches a limited
        // number of signature entries, far less than a full rebuild (N × D).
        let (mut net, objects, mut idx, mut maint) = fixture(53);
        let mut rng = StdRng::seed_from_u64(99);
        let mut total_entries = 0usize;
        let rounds = 10;
        for _ in 0..rounds {
            let u = NodeId(rng.gen_range(0..net.num_nodes() as u32));
            let nbrs: Vec<_> = net.neighbors(u).collect();
            let (_, v, w) = nbrs[rng.gen_range(0..nbrs.len())];
            let r = maint.update_edge(&mut net, &mut idx, u, v, w + 1);
            total_entries += r.entries_changed;
        }
        let full = net.num_nodes() * objects.len();
        assert!(
            total_entries < rounds * full / 4,
            "avg {} entries per update vs full {full}",
            total_entries / rounds
        );
        assert_index_consistent(&net, &objects, &idx);
    }

    #[test]
    fn queries_stay_correct_after_updates() {
        use crate::query::knn::{knn, KnnType};
        use crate::query::range::range_query;
        let (mut net, objects, mut idx, mut maint) = fixture(59);
        let mut rng = StdRng::seed_from_u64(60);
        for _ in 0..8 {
            let u = NodeId(rng.gen_range(0..net.num_nodes() as u32));
            let nbrs: Vec<_> = net.neighbors(u).collect();
            let (_, v, w) = nbrs[rng.gen_range(0..nbrs.len())];
            let new_w = if rng.gen_bool(0.5) {
                w + 4
            } else {
                w.max(2) - 1
            };
            maint.update_edge(&mut net, &mut idx, u, v, new_w);
        }
        let mut sess = idx.session(&net);
        for n in net.nodes().step_by(17) {
            let tree = sssp(&net, n);
            // Range truth.
            let eps = 40;
            let truth: Vec<ObjectId> = objects
                .iter()
                .filter(|&(_, h)| tree.dist[h.index()] <= eps)
                .map(|(o, _)| o)
                .collect();
            assert_eq!(range_query(&mut sess, n, eps), truth, "range at {n}");
            // 1-NN distance truth.
            let got = knn(&mut sess, n, 1, KnnType::Type1);
            let best = objects
                .iter()
                .map(|(_, h)| tree.dist[h.index()])
                .min()
                .unwrap();
            assert_eq!(got[0].dist, Some(best), "1NN at {n}");
        }
    }
}
