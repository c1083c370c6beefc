//! Signature maintenance under edge updates (§5.4), by two routes to one
//! patch.
//!
//! Both routes work out, for a batch of edge re-weightings, which
//! `(node, object)` entries may have moved and what their new category and
//! backtracking link are, then hand that to one patch: decode the touched
//! signatures, refresh the object-pair distance table, re-encode exactly
//! the signatures whose **category or backtracking link changed** — "the
//! updates on n are aggregated and only the changes on distance category or
//! backtracking link are updated in the signature".
//!
//! * [`SignatureMaintainer`] is the paper's route: it owns the per-object
//!   shortest-path spanning trees (the construction intermediates the paper
//!   keeps) and repairs them edge by edge through
//!   [`SpanningForest::update_edge`]. It is the reference the other route
//!   is tested against, and what `repro_updates` measures.
//! * [`update_from_labels`] needs no forest: given exact hub labels of the
//!   network before and after a batch, it finds every changed distance by
//!   growing a region from the re-weighted edges' endpoints, and re-derives
//!   links from the new distances. The query service maintains its
//!   signatures this way, from the labels its publish repairs anyway.
//!
//! A link is always the **first tight slot** — the first adjacency slot
//! whose neighbour lies on a shortest path, the rule construction uses — on
//! the label route. The forest keeps whichever tight parent its repair met
//! first, so on ties the two routes may store different (equally valid)
//! links; categories and object-pair distances always agree.
//!
//! Edge removals may disconnect parts of the network. Nodes cut off from an
//! object categorize into the open-ended last category — range and kNN
//! pruning stay sound — but *exact* retrieval of an unreachable object is
//! undefined (its backtracking chain no longer terminates and the session
//! asserts). The paper assumes a connected network (§5.2); the query
//! service refuses a batch that would disconnect it.
//!
//! One correctness subtlety beyond the paper's description: compression
//! (§5.3) resolves a flagged entry `v` through the object↔object distance
//! `d(u, v)` of its link anchor `u`. If an update changes the *category* of
//! an object pair, nodes whose signature compressed against that pair must
//! be re-encoded even though their own distances did not change. The patch
//! detects category-changing pairs (they only arise when a node hosting an
//! object changes distance) and re-encodes dependent nodes — one pass over
//! the signatures per call, however many pairs changed; this is the rare,
//! expensive path and is reported separately.

use std::collections::{HashMap, HashSet};

use dsi_graph::network::Slot;
use dsi_graph::spanning::SpanningForest;
use dsi_graph::{Dist, NodeId, ObjectId, ObjectSet, RoadNetwork, INFINITY};
use dsi_hierarchy::{HubLabels, LabelBuckets};

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
    /// Objects whose distances the update changed (spanning trees affected,
    /// on the forest route).
    pub objects_affected: usize,
    /// Extra nodes re-encoded only because an object-pair category changed
    /// under their compressed entries.
    pub compression_rescans: usize,
    /// Forest route: spanning-tree nodes whose label the repair recomputed,
    /// summed over the affected trees
    /// ([`dsi_graph::spanning::TreeDelta::nodes_reset`]). Label route: the
    /// `(node, object)` distances that changed.
    pub tree_nodes_reset: usize,
    /// Forest route: spanning-tree nodes the repair looked at, summed
    /// likewise. Label route: the `(node, object)` distances looked up. The
    /// work counter that stays within a degree factor of `tree_nodes_reset`
    /// (plus, on the label route, the endpoints every object checks)
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
        let mut report = [UpdateReport {
            objects_affected: delta.per_object.len(),
            tree_nodes_reset: delta.nodes_reset(),
            tree_nodes_visited: delta.nodes_visited(),
            ..Default::default()
        }];
        if delta.per_object.is_empty() {
            return report[0];
        }
        let part = index.partition();
        let mut patch = Patch::default();
        for td in &delta.per_object {
            let tree = self.forest.tree(td.object);
            for &(v, old_d, new_d) in &td.changed {
                patch.entry(
                    v,
                    td.object,
                    part.category_of(new_d),
                    tree.parent_slot[v.index()],
                    0,
                );
                if let Some(host_obj) = index.object_at(v).filter(|&y| y != td.object) {
                    patch.pair(part, td.object, host_obj, old_d, new_d, 0);
                }
            }
        }
        patch.apply(index, &mut report);
        report[0]
    }
}

/// Maintain `index` across a batch of edge re-weightings from exact hub
/// labels of the network before (`old`) and after (`new`) the batch — no
/// spanning forest. `net` is the re-weighted network, `edges` every
/// re-weighted edge in batch order (repeats allowed), and each
/// [`LabelBuckets`] must invert its labels over the object hosts in
/// object-id order (a bucket rank is an object id). Returns one report per
/// edge; the batch's work is charged to the first edge whose endpoints
/// seeded it, so the reports sum to the batch totals.
///
/// Per object, the changed distances are exactly the nodes reached from the
/// edges' endpoints through neighbours whose old and new distances differ:
/// if `d(n, o)` moved, every node on a shortest path from `n` toward `o` —
/// the new one for a decrease, the old one for an increase — changed too,
/// up to the first re-weighted edge on it. A link is re-derived as the
/// first tight slot wherever it could have moved: at the changed nodes, at
/// their neighbours, and at every endpoint for every object (a tie can move
/// an endpoint's link while no distance does). Distances are label merges
/// against one dense hub array per object and label set; the endpoints read
/// every object at once from the buckets.
pub fn update_from_labels(
    index: &mut SignatureIndex,
    net: &RoadNetwork,
    old: (&HubLabels, &LabelBuckets),
    new: (&HubLabels, &LabelBuckets),
    edges: &[(NodeId, NodeId)],
) -> Vec<UpdateReport> {
    let mut reports = vec![UpdateReport::default(); edges.len()];
    // Every endpoint's distance to every object, before and after.
    let mut rows: HashMap<NodeId, (Vec<Dist>, Vec<Dist>)> = HashMap::new();
    for &(a, b) in edges {
        for x in [a, b] {
            rows.entry(x).or_insert_with(|| {
                let (mut before, mut after) = (Vec::new(), Vec::new());
                old.0.one_to_many(x, old.1, &mut before);
                new.0.one_to_many(x, new.1, &mut after);
                (before, after)
            });
        }
    }
    let part = index.partition();
    let mut ws = LabelWalk::new(net.num_nodes());
    let mut patch = Patch::default();
    for o in index.objects() {
        let host = index.host(o);
        ws.begin(old.0, new.0, host);
        let lookup = |ws: &mut LabelWalk, v: NodeId| match rows.get(&v) {
            Some((before, after)) => (before[o.index()], after[o.index()]),
            None => (ws.dist(old.0, 0, v), ws.dist(new.0, 1, v)),
        };
        // The changed region, grown from each endpoint in batch order.
        let endpoints = edges.iter().enumerate();
        for (x, charge) in endpoints.flat_map(|(i, &(a, b))| [(a, i), (b, i)]) {
            if ws.seen(x) {
                continue;
            }
            let (before, after) = lookup(&mut ws, x);
            ws.examine(x, before, after, charge);
            reports[charge].tree_nodes_visited += 1;
            while let Some((u, charge)) = ws.queue.pop() {
                for (_, v, w) in net.neighbors(u) {
                    if w == INFINITY || ws.seen(v) {
                        continue;
                    }
                    let (before, after) = lookup(&mut ws, v);
                    ws.examine(v, before, after, charge);
                    reports[charge].tree_nodes_visited += 1;
                }
            }
        }
        // New categories and links over everything examined, patched
        // where they differ from the stored entry: a changed node has every
        // neighbour examined; an unchanged one keeps its stored link unless
        // a neighbour before or at it moved.
        let mut affected = vec![false; edges.len()];
        for k in 0..ws.examined.len() {
            let (v, charge) = ws.examined[k];
            let (before, after) = (ws.before[v.index()], ws.after[v.index()]);
            let stored = index.decode_entry(v, o);
            let link = if before != after {
                reports[charge].tree_nodes_reset += 1;
                affected[charge] = true;
                if let Some(y) = index.object_at(v).filter(|&y| y != o) {
                    patch.pair(part, o, y, before, after, charge);
                }
                ws.first_tight(net, new.0, v, 0, &mut reports[charge])
            } else {
                ws.relinked(net, new.0, v, stored.1, &mut reports[charge])
            };
            let cat = part.category_of(after);
            if (cat, link) != stored {
                patch.entry(v, o, cat, link, charge);
            }
        }
        for (r, hit) in reports.iter_mut().zip(affected) {
            r.objects_affected += usize::from(hit);
        }
        ws.end(old.0, new.0, host);
    }
    patch.apply(index, &mut reports);
    reports
}

/// One object's label walk: the host's old and new labels spread into dense
/// hub arrays, the `(node, object)` distances looked up so far (stamped, so
/// nothing is cleared between objects), and the region being grown.
struct LabelWalk {
    /// `hub[0]` / `hub[1]`: hub → distance to the host, old / new labels;
    /// [`INFINITY`] off the host's label.
    hub: [Vec<Dist>; 2],
    stamp: Vec<u32>,
    epoch: u32,
    before: Vec<Dist>,
    after: Vec<Dist>,
    /// Nodes whose old and new distances were both looked up, each with the
    /// update it is charged to.
    examined: Vec<(NodeId, usize)>,
    /// Changed nodes whose neighbours are still to be examined.
    queue: Vec<(NodeId, usize)>,
}

impl LabelWalk {
    fn new(n: usize) -> Self {
        LabelWalk {
            hub: [vec![INFINITY; n], vec![INFINITY; n]],
            stamp: vec![0; n],
            epoch: 0,
            before: vec![INFINITY; n],
            after: vec![INFINITY; n],
            examined: Vec::new(),
            queue: Vec::new(),
        }
    }

    fn begin(&mut self, old: &HubLabels, new: &HubLabels, host: NodeId) {
        for (k, hl) in [old, new].into_iter().enumerate() {
            for (h, d) in hl.label_of(host) {
                self.hub[k][h.index()] = d;
            }
        }
        // One walk per object and call: the stamp never wraps.
        self.epoch += 1;
        self.examined.clear();
    }

    fn end(&mut self, old: &HubLabels, new: &HubLabels, host: NodeId) {
        for (k, hl) in [old, new].into_iter().enumerate() {
            for (h, _) in hl.label_of(host) {
                self.hub[k][h.index()] = INFINITY;
            }
        }
    }

    #[inline]
    fn seen(&self, v: NodeId) -> bool {
        self.stamp[v.index()] == self.epoch
    }

    /// `v`'s distance to the host under label set `k`: one pass over `v`'s
    /// label against the dense hub array.
    fn dist(&self, hl: &HubLabels, k: usize, v: NodeId) -> Dist {
        hl.label_of(v)
            .map(|(h, d)| dsi_graph::ids::dist_add(d, self.hub[k][h.index()]))
            .min()
            .unwrap_or(INFINITY)
    }

    /// Record `v`'s old and new distance; a changed node joins the region.
    fn examine(&mut self, v: NodeId, before: Dist, after: Dist, charge: usize) {
        self.stamp[v.index()] = self.epoch;
        self.before[v.index()] = before;
        self.after[v.index()] = after;
        self.examined.push((v, charge));
        if before != after {
            self.queue.push((v, charge));
        }
    }

    /// New distance of `u`, looked up (and counted) if it was never
    /// examined. Only links ask for these, after the region is complete.
    fn after_of(&mut self, hl: &HubLabels, u: NodeId, report: &mut UpdateReport) -> Dist {
        if !self.seen(u) {
            self.stamp[u.index()] = self.epoch;
            self.before[u.index()] = INFINITY;
            self.after[u.index()] = self.dist(hl, 1, u);
            report.tree_nodes_visited += 1;
        }
        self.after[u.index()]
    }

    /// The first slot of `v` at or after `from` whose neighbour lies on a
    /// shortest path to the host (`0` at the host, and where nothing is
    /// reachable).
    fn first_tight(
        &mut self,
        net: &RoadNetwork,
        hl: &HubLabels,
        v: NodeId,
        from: usize,
        report: &mut UpdateReport,
    ) -> Slot {
        let dv = self.after[v.index()];
        if dv == 0 || dv == INFINITY {
            return 0;
        }
        for (slot, u, w) in net.neighbors(v).skip(from) {
            if w != INFINITY && self.after_of(hl, u, report).checked_add(w) == Some(dv) {
                return slot;
            }
        }
        0
    }

    /// The link of an examined node whose distance did not change, given
    /// its stored one. An unexamined neighbour kept its distance and its
    /// edge its weight, so its slot stays tight or not as it was: before
    /// `stored` only an examined neighbour can have become tight, and at
    /// `stored` the old link holds unless its neighbour was examined and is
    /// no longer tight — then the scan goes on past it.
    fn relinked(
        &mut self,
        net: &RoadNetwork,
        hl: &HubLabels,
        v: NodeId,
        stored: Slot,
        report: &mut UpdateReport,
    ) -> Slot {
        let dv = self.after[v.index()];
        if dv == 0 || dv == INFINITY {
            return 0;
        }
        for (slot, u, w) in net.neighbors(v).take(stored as usize + 1) {
            if slot == stored && !self.seen(u) {
                return stored;
            }
            if self.seen(u) && w != INFINITY && self.after[u.index()].checked_add(w) == Some(dv) {
                return slot;
            }
        }
        self.first_tight(net, hl, v, stored as usize + 1, report)
    }
}

/// Entries a batch may have moved, grouped by node, and the object pairs
/// whose distance changed — the input to the one patch both maintenance
/// routes share.
#[derive(Default)]
struct Patch {
    per_node: HashMap<NodeId, Vec<Entry>>,
    pairs: Vec<PairChange>,
}

/// A `(node, object)` entry's new category and link, and the update of the
/// batch its change is charged to.
struct Entry {
    object: ObjectId,
    cat: u8,
    link: Slot,
    charge: usize,
}

/// Object `y` is hosted at a node whose distance to object `x` changed.
struct PairChange {
    x: ObjectId,
    y: ObjectId,
    dist: Dist,
    old_cat: u8,
    new_cat: u8,
    charge: usize,
}

impl Patch {
    fn entry(&mut self, v: NodeId, object: ObjectId, cat: u8, link: Slot, charge: usize) {
        self.per_node.entry(v).or_default().push(Entry {
            object,
            cat,
            link,
            charge,
        });
    }

    fn pair(
        &mut self,
        part: &crate::CategoryPartition,
        x: ObjectId,
        y: ObjectId,
        old_d: Dist,
        new_d: Dist,
        charge: usize,
    ) {
        self.pairs.push(PairChange {
            x,
            y,
            dist: new_d,
            old_cat: part.category_of(old_d),
            new_cat: part.category_of(new_d),
            charge,
        });
    }

    /// Decode, refresh the object-pair table, re-encode — charging each
    /// re-encoded node to the earliest update among its changed entries, and
    /// the compression rescan to the earliest update that changed a pair's
    /// category.
    fn apply(self, index: &mut SignatureIndex, reports: &mut [UpdateReport]) {
        let last_cat = (index.partition().num_categories() - 1) as u8;
        // Category-changing pairs endanger compressed entries elsewhere.
        let recat: Vec<&PairChange> = self
            .pairs
            .iter()
            .filter(|p| p.old_cat != p.new_cat)
            .collect();
        let rescan_charge = recat.iter().map(|p| p.charge).min();
        let changed_pairs: HashSet<(u32, u32)> = recat
            .iter()
            .flat_map(|p| [(p.x.0, p.y.0), (p.y.0, p.x.0)])
            .collect();

        // Phase A: decode, with the *old* object-distance table, every node
        // we may re-encode: the nodes with candidate entries, plus (if pair
        // categories changed) any node whose compressed entries resolve
        // through a changed pair. Dependent nodes must be re-encoded even
        // if none of their own entries changed.
        let mut resolved: HashMap<NodeId, (Vec<u8>, Vec<Slot>)> = HashMap::new();
        let mut force_reencode: HashSet<NodeId> = HashSet::new();
        for &v in self.per_node.keys() {
            let sig = index.decode_node(v);
            resolved.insert(v, (sig.cats, sig.links));
        }
        if let Some(charge) = rescan_charge {
            // Only a node whose skip directory carries an anchor from a
            // changed pair can resolve an entry through one: the rest are
            // passed over without a decode.
            let mut pair_objects = vec![false; index.num_objects()];
            for &(x, _) in &changed_pairs {
                pair_objects[x as usize] = true;
            }
            for ni in 0..index.num_nodes() {
                let v = NodeId(ni as u32);
                let anchors = index.skip_dir(v).anchors();
                if !anchors.iter().any(|a| pair_objects[a.obj as usize]) {
                    continue;
                }
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
                        reports[charge].compression_rescans += 1;
                        e.insert((sig.cats, sig.links));
                    }
                }
            }
        }

        // Phase B: refresh the object-distance table.
        for p in &self.pairs {
            let stored = (p.new_cat != last_cat).then_some(p.dist);
            index.set_obj_dist(p.x, p.y, stored);
        }

        // Phase C: apply entry changes and re-encode.
        for (v, (cats, links)) in &mut resolved {
            let mut charge = rescan_charge.filter(|_| force_reencode.contains(v));
            for e in self.per_node.get(v).into_iter().flatten() {
                let o = e.object.index();
                if cats[o] != e.cat || links[o] != e.link {
                    cats[o] = e.cat;
                    links[o] = e.link;
                    reports[e.charge].entries_changed += 1;
                    charge = Some(charge.map_or(e.charge, |c| c.min(e.charge)));
                }
            }
            if let Some(c) = charge {
                index.reencode_node(*v, cats, links);
                reports[c].nodes_reencoded += 1;
                reports[c].pages_touched += index.store().pages_of(v.index()).len() as u64;
            }
        }
    }
}

/// Does any compressed entry of this signature resolve through one of
/// `changed_pairs` (object-id pairs, both orientations present)?
fn depends_on_pair(
    scheme: crate::compress::CompressionScheme,
    cats: &[u8],
    links: &[Slot],
    compressed: &[bool],
    changed_pairs: &HashSet<(u32, u32)>,
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

    /// Labels and object buckets of `net`, as a publish holds them.
    fn labels_of(net: &RoadNetwork, objects: &ObjectSet) -> (HubLabels, LabelBuckets) {
        let ch = dsi_hierarchy::ContractionHierarchy::build(net, &Default::default());
        let hl = HubLabels::build(&ch);
        let buckets = hl.buckets(objects.host_nodes());
        (hl, buckets)
    }

    /// Batches of every kind — increases, decreases, an edge hit twice, a
    /// no-op, a closure and its re-opening — through both routes: the
    /// label route decodes equal to a fresh build (first-tight-slot links
    /// included) after every batch, and agrees with the forest on every
    /// category and object-pair distance.
    #[test]
    fn label_route_equals_a_fresh_build_and_the_forests_categories() {
        for scheme in [
            crate::compress::CompressionScheme::GlobalAnchor,
            crate::compress::CompressionScheme::PerLinkAnchor,
        ] {
            let mut rng = StdRng::seed_from_u64(71);
            let mut net = random_planar(
                &PlanarConfig {
                    num_nodes: 220,
                    ..Default::default()
                },
                &mut rng,
            );
            let objects = ObjectSet::uniform(&net, 0.06, &mut rng);
            let cfg = SignatureConfig {
                t: Some(6),
                spreading: Some(120),
                scheme,
                ..Default::default()
            };
            let mut idx = SignatureIndex::build(&net, &objects, &cfg);
            let mut forest_net = net.clone();
            let mut forest_idx = idx.clone();
            let mut maint = SignatureMaintainer::new(&net, &objects);
            let mut labels = labels_of(&net, &objects);
            let mut closed = None;
            let mut rescans = 0;
            for round in 0..10 {
                let mut batch = Vec::new();
                for k in 0..4 {
                    let u = NodeId(rng.gen_range(0..net.num_nodes() as u32));
                    let live: Vec<_> = net.neighbors(u).filter(|e| e.2 != INFINITY).collect();
                    let (_, v, w) = live[rng.gen_range(0..live.len())];
                    let new_w = match (round + k) % 3 {
                        0 => w + rng.gen_range(1..30u32),
                        1 => w.max(2) - 1,
                        _ => w,
                    };
                    batch.push((u, v, new_w));
                    if k == 0 {
                        // The same edge again, to another weight.
                        batch.push((u, v, w + 2));
                    }
                }
                match round {
                    3 => {
                        // Close an edge whose removal keeps the network
                        // connected.
                        let (a, b, w) = net
                            .nodes()
                            .flat_map(|a| net.neighbors(a).map(move |(_, b, w)| (a, b, w)))
                            .find(|&(a, b, w)| {
                                let mut probe = net.clone();
                                probe.set_edge_weight(a, b, INFINITY);
                                w != INFINITY && probe.is_connected()
                            })
                            .unwrap();
                        batch.push((a, b, INFINITY));
                        closed = Some((a, b, w));
                    }
                    6 => batch.push(closed.take().unwrap()),
                    _ => {}
                }
                let edges: Vec<_> = batch.iter().map(|&(a, b, _)| (a, b)).collect();
                for &(a, b, w) in &batch {
                    net.set_edge_weight(a, b, w);
                    maint.update_edge(&mut forest_net, &mut forest_idx, a, b, w);
                }
                let next = labels_of(&net, &objects);
                let reports = update_from_labels(
                    &mut idx,
                    &net,
                    (&labels.0, &labels.1),
                    (&next.0, &next.1),
                    &edges,
                );
                labels = next;
                assert_eq!(reports.len(), edges.len());
                rescans += reports.iter().map(|r| r.compression_rescans).sum::<usize>();
                for r in &reports {
                    assert!(r.tree_nodes_reset <= r.tree_nodes_visited, "round {round}");
                }

                let fresh = SignatureIndex::build(&net, &objects, &cfg);
                assert_eq!(
                    idx.obj_dist().rows,
                    forest_idx.obj_dist().rows,
                    "round {round}"
                );
                assert_eq!(
                    idx.obj_dist().rows,
                    fresh.obj_dist().rows,
                    "round {round}: the table against a fresh build"
                );
                for n in net.nodes() {
                    let (got, want) = (idx.decode_node(n), fresh.decode_node(n));
                    assert_eq!(got.cats, want.cats, "{scheme:?} round {round}: cats at {n}");
                    assert_eq!(
                        got.links, want.links,
                        "{scheme:?} round {round}: links at {n}"
                    );
                    assert_eq!(forest_idx.decode_node(n).cats, got.cats, "forest at {n}");
                }
            }
            assert!(rescans > 0, "{scheme:?}: the rescan path never ran");
        }
    }
}
