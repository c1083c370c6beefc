//! Per-object shortest-path spanning trees and their incremental maintenance
//! under edge updates (paper Section 5.4).
//!
//! The signature construction runs one Dijkstra per object; the resulting
//! spanning trees are "the intermediate results during signature
//! construction" that the paper keeps around to support updates. This module
//! owns those trees and implements both update directions:
//!
//! * **Adding an edge / decreasing a weight** (§5.4.1): test the endpoints
//!   and propagate improvements outward until no distance changes.
//! * **Removing an edge / increasing a weight** (§5.4.2): find the trees that
//!   actually use the edge, recompute the subtree hanging below it, and
//!   propagate.
//!
//! Either way a repair costs what it damages: it touches the nodes whose
//! label it must recompute and their neighbours, through scratch state the
//! forest owns and reuses (`RepairScratch`), with no pass over the node
//! range and no per-tree allocation. [`TreeDelta`] reports that work
//! (`nodes_reset`, `nodes_visited`) next to the changes themselves.
//!
//! Edge insertion/removal is expressed as weight changes to/from
//! [`INFINITY`], which keeps adjacency slots (and hence backtracking links)
//! stable. The paper additionally keeps a reverse index from edges to the
//! spanning trees containing them; with a moderate dataset cardinality `D`
//! (the paper's own operating assumption) the `O(D)` parent check is equally
//! fast and needs no extra memory, so [`SpanningForest::update_edge`] scans
//! the trees instead.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::dataset::ObjectSet;
use crate::dijkstra::{sssp, sssp_into, SsspTree};
use crate::ids::{dist_add, Dist, NodeId, ObjectId, INFINITY, NO_NODE};
use crate::network::RoadNetwork;
use crate::workspace::SsspWorkspace;

/// One shortest-path spanning tree per object.
#[derive(Clone, Debug)]
pub struct SpanningForest {
    trees: Vec<SsspTree>,
    scratch: RepairScratch,
}

/// Nodes whose distance, parent, or parent slot changed in one tree, and
/// the work it took to find them.
#[derive(Clone, Debug)]
pub struct TreeDelta {
    pub object: ObjectId,
    /// `(node, old distance, new distance)`; parents may change even when
    /// the two distances are equal only on rebuild-free improvements, which
    /// we do not generate — every entry here has `old != new` or a parent
    /// change. Each node appears once, in repair order (deterministic).
    pub changed: Vec<(NodeId, Dist, Dist)>,
    /// Nodes whose label the repair had to recompute: the subtree below the
    /// edge on an increase, the nodes that improved on a decrease.
    pub nodes_reset: usize,
    /// Nodes the repair looked at: the reset nodes plus every neighbour
    /// examined while collecting, seeding and relaxing them. Bounded by
    /// `nodes_reset` and the degree, never by the network size.
    pub nodes_visited: usize,
}

/// Per-object deltas produced by a single edge update.
#[derive(Clone, Debug, Default)]
pub struct ForestDelta {
    pub per_object: Vec<TreeDelta>,
}

impl ForestDelta {
    /// Total number of `(object, node)` entries touched.
    pub fn touched_entries(&self) -> usize {
        self.per_object.iter().map(|d| d.changed.len()).sum()
    }

    /// [`TreeDelta::nodes_reset`] summed over the affected trees.
    pub fn nodes_reset(&self) -> usize {
        self.per_object.iter().map(|d| d.nodes_reset).sum()
    }

    /// [`TreeDelta::nodes_visited`] summed over the affected trees.
    pub fn nodes_visited(&self) -> usize {
        self.per_object.iter().map(|d| d.nodes_visited).sum()
    }
}

impl TreeDelta {
    fn new(object: ObjectId) -> Self {
        TreeDelta {
            object,
            changed: Vec::new(),
            nodes_reset: 0,
            nodes_visited: 0,
        }
    }
}

/// Repair state reused across trees and edges, so one repair allocates
/// nothing and never sweeps the node range.
#[derive(Clone, Debug)]
struct RepairScratch {
    /// One stamped word per node: `mark[v] >= base` means `v` holds slot
    /// `mark[v] - base` of the running repair's list (subtree members on an
    /// increase, `changed` on a decrease). Starting a repair moves `base`
    /// past every slot handed out so far, which unmarks all nodes at once.
    mark: Vec<u32>,
    base: u32,
    claimed: u32,
    /// Subtree members with their pre-repair `(dist, parent)`.
    members: Vec<(NodeId, Dist, NodeId)>,
    heap: BinaryHeap<Reverse<(Dist, NodeId)>>,
}

impl RepairScratch {
    fn new(num_nodes: usize) -> Self {
        RepairScratch {
            mark: vec![0; num_nodes],
            base: 1,
            claimed: 0,
            members: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Start a repair: no node holds a slot.
    fn begin(&mut self) {
        self.base += self.claimed;
        self.claimed = 0;
        // A repair claims at most one slot per node; re-zero the stamps
        // before `base + slot` could wrap.
        if self.base > u32::MAX - self.mark.len() as u32 {
            self.mark.fill(0);
            self.base = 1;
        }
        self.members.clear();
    }

    #[inline]
    fn slot(&self, v: NodeId) -> Option<usize> {
        self.mark[v.index()]
            .checked_sub(self.base)
            .map(|s| s as usize)
    }

    /// Hand `v` the next slot (callers push to their list in step).
    #[inline]
    fn claim(&mut self, v: NodeId) {
        self.mark[v.index()] = self.base + self.claimed;
        self.claimed += 1;
    }

    /// Make `v` a subtree member: save its label, then clear it.
    fn detach(&mut self, tree: &mut SsspTree, v: NodeId) {
        self.claim(v);
        let old_d = std::mem::replace(&mut tree.dist[v.index()], INFINITY);
        let old_p = std::mem::replace(&mut tree.parent[v.index()], NO_NODE);
        self.members.push((v, old_d, old_p));
    }
}

impl SpanningForest {
    /// Build the forest by running one Dijkstra per object, through a single
    /// reused workspace (arrays and queue allocated once for all `|D|` runs).
    ///
    /// Parents are rewritten to the *canonical link rule* — see
    /// [`canonicalize_parents`].
    pub fn build(net: &RoadNetwork, objects: &ObjectSet) -> Self {
        let mut ws = SsspWorkspace::new();
        let trees = objects
            .iter()
            .map(|(_, host)| {
                sssp_into(net, host, &mut ws);
                let mut tree = ws.to_tree(host);
                canonicalize_parents(net, &mut tree);
                tree
            })
            .collect();
        SpanningForest {
            trees,
            scratch: RepairScratch::new(net.num_nodes()),
        }
    }

    /// Number of trees (= number of objects).
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// The spanning tree of object `o`.
    pub fn tree(&self, o: ObjectId) -> &SsspTree {
        &self.trees[o.index()]
    }

    /// Distance from node `n` to object `o`.
    #[inline]
    pub fn dist(&self, o: ObjectId, n: NodeId) -> Dist {
        self.trees[o.index()].dist[n.index()]
    }

    /// Objects whose spanning tree uses edge `{a, b}` (the `O(D)` scan that
    /// replaces the paper's reverse index; see module docs).
    pub fn objects_using_edge(&self, a: NodeId, b: NodeId) -> Vec<ObjectId> {
        self.trees
            .iter()
            .enumerate()
            .filter(|(_, t)| t.parent[b.index()] == a || t.parent[a.index()] == b)
            .map(|(i, _)| ObjectId(i as u32))
            .collect()
    }

    /// Apply an edge-weight update (insertion = from `INFINITY`, removal =
    /// to `INFINITY`) to the network and repair every affected tree,
    /// returning what changed. This is the entry point of Section 5.4.
    pub fn update_edge(
        &mut self,
        net: &mut RoadNetwork,
        a: NodeId,
        b: NodeId,
        new_w: Dist,
    ) -> ForestDelta {
        let old_w = net
            .edge_weight(a, b)
            .expect("update_edge: nodes are not adjacent");
        if old_w == new_w {
            return ForestDelta::default();
        }
        // Which trees use the edge must be decided *before* mutating, for
        // the increase case.
        let users: Vec<ObjectId> = if new_w > old_w {
            self.objects_using_edge(a, b)
        } else {
            Vec::new()
        };
        net.set_edge_weight(a, b, new_w);

        let mut out = ForestDelta::default();
        let SpanningForest { trees, scratch } = self;
        if new_w < old_w {
            // §5.4.1 — every tree may improve through the cheaper edge.
            for (i, tree) in trees.iter_mut().enumerate() {
                let mut delta = TreeDelta::new(ObjectId(i as u32));
                scratch.begin();
                decrease_propagate(net, tree, a, b, new_w, scratch, &mut delta);
                decrease_propagate(net, tree, b, a, new_w, scratch, &mut delta);
                if !delta.changed.is_empty() {
                    out.per_object.push(delta);
                }
            }
        } else {
            // §5.4.2 — only trees whose shortest paths ran through the edge
            // are affected.
            for o in users {
                let tree = &mut trees[o.index()];
                // Child endpoint: the one whose parent is across the edge.
                let child = if tree.parent[b.index()] == a { b } else { a };
                let mut delta = TreeDelta::new(o);
                scratch.begin();
                repair_subtree(net, tree, child, scratch, &mut delta);
                if !delta.changed.is_empty() {
                    out.per_object.push(delta);
                }
            }
        }
        out
    }

    /// Verify every tree against a fresh Dijkstra (test support; O(D·N log N)).
    pub fn validate(&self, net: &RoadNetwork, objects: &ObjectSet) -> Result<(), String> {
        for (o, host) in objects.iter() {
            let fresh = sssp(net, host);
            let t = self.tree(o);
            if t.dist != fresh.dist {
                for n in net.nodes() {
                    if t.dist[n.index()] != fresh.dist[n.index()] {
                        return Err(format!(
                            "tree {o}: dist[{n}] = {} but Dijkstra says {}",
                            t.dist[n.index()],
                            fresh.dist[n.index()]
                        ));
                    }
                }
            }
            // Parents must be distance-consistent even if they differ from
            // the fresh tree (shortest paths are not unique).
            for n in net.nodes() {
                let p = t.parent[n.index()];
                if p != NO_NODE {
                    let w = net
                        .edge_weight(n, p)
                        .ok_or_else(|| format!("tree {o}: parent of {n} not adjacent"))?;
                    if dist_add(t.dist[p.index()], w) != t.dist[n.index()] {
                        return Err(format!("tree {o}: parent of {n} not on a shortest path"));
                    }
                    let (via_slot, _) = net.neighbor_at(n, t.parent_slot[n.index()]);
                    if via_slot != p {
                        return Err(format!("tree {o}: parent_slot of {n} wrong"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Rewrite every parent to the canonical link rule: the **first** adjacency
/// slot `s` of `v` whose neighbor `u` satisfies `dist[u] + w(u,v) =
/// dist[v]`. Shortest paths are not unique, so Dijkstra's parent choice
/// depends on heap tie-breaking; the canonical rule is a pure function of
/// the distance labels. Index constructions that never run a per-object
/// Dijkstra (PHAST sweeps over a contraction hierarchy yield bare
/// distances) recover their backtracking links by the same rule, so a
/// canonical forest starts link-identical to *any* such index — the
/// invariant incremental maintenance relies on. Positive edge weights make
/// canonical parents strictly distance-decreasing, hence still a tree.
pub fn canonicalize_parents(net: &RoadNetwork, tree: &mut SsspTree) {
    for v in net.nodes() {
        let dv = tree.dist[v.index()];
        if dv == INFINITY || tree.parent[v.index()] == NO_NODE {
            continue;
        }
        for (slot, u, w) in net.neighbors(v) {
            if w != INFINITY
                && tree.dist[u.index()] != INFINITY
                && dist_add(tree.dist[u.index()], w) == dv
            {
                tree.parent[v.index()] = u;
                tree.parent_slot[v.index()] = slot;
                break;
            }
        }
    }
}

/// §5.4.1: if `dist[from] + w < dist[to]`, adopt the edge and propagate the
/// improvement with a label-correcting Dijkstra pass. Work is proportional
/// to the nodes that improve and their degrees.
fn decrease_propagate(
    net: &RoadNetwork,
    tree: &mut SsspTree,
    from: NodeId,
    to: NodeId,
    w: Dist,
    scratch: &mut RepairScratch,
    delta: &mut TreeDelta,
) {
    let seed = dist_add(tree.dist[from.index()], w);
    if seed >= tree.dist[to.index()] {
        return;
    }
    record(scratch, delta, to, tree.dist[to.index()], seed);
    tree.dist[to.index()] = seed;
    tree.parent[to.index()] = from;
    tree.parent_slot[to.index()] = net
        .slot_of(to, from)
        .expect("decrease_propagate: endpoints not adjacent");
    scratch.heap.push(Reverse((seed, to)));
    while let Some(Reverse((d, u))) = scratch.heap.pop() {
        if d > tree.dist[u.index()] {
            continue; // stale
        }
        for (slot, v, ew) in net.neighbors(u) {
            delta.nodes_visited += 1;
            if ew == INFINITY {
                continue;
            }
            let nd = dist_add(d, ew);
            if nd < tree.dist[v.index()] {
                record(scratch, delta, v, tree.dist[v.index()], nd);
                tree.dist[v.index()] = nd;
                tree.parent[v.index()] = u;
                tree.parent_slot[v.index()] = net.reverse_slot(u, slot);
                scratch.heap.push(Reverse((nd, v)));
            }
        }
    }
}

/// Note that `v` improved from `old` to `new`. A node can improve
/// repeatedly during propagation: its slot in `changed` (kept in the
/// stamped scratch) keeps the *original* old distance and takes the latest
/// new one.
fn record(scratch: &mut RepairScratch, delta: &mut TreeDelta, v: NodeId, old: Dist, new: Dist) {
    match scratch.slot(v) {
        Some(i) => delta.changed[i].2 = new,
        None => {
            scratch.claim(v);
            delta.changed.push((v, old, new));
            delta.nodes_reset += 1;
            delta.nodes_visited += 1;
        }
    }
}

/// §5.4.2: the subtree below `child` lost its supporting edge; recompute its
/// distances from the boundary with the rest of the tree. The subtree is
/// collected by walking tree children (neighbours whose parent is the node
/// just visited) and everything after touches only its members and their
/// neighbours, so a repair costs `O(|subtree| · degree · log)` however
/// large the network is. Nodes already unreachable have no parent, are
/// never collected, and stay outside: an increase cannot reconnect them.
fn repair_subtree(
    net: &RoadNetwork,
    tree: &mut SsspTree,
    child: NodeId,
    scratch: &mut RepairScratch,
    delta: &mut TreeDelta,
) {
    // Collect the subtree breadth-first: the member list is its own queue.
    scratch.detach(tree, child);
    let mut next = 0;
    while let Some(&(u, _, _)) = scratch.members.get(next) {
        next += 1;
        for (_, v, _) in net.neighbors(u) {
            delta.nodes_visited += 1;
            // A detached node has no parent, so none is claimed twice.
            if tree.parent[v.index()] == u {
                scratch.detach(tree, v);
            }
        }
    }
    delta.nodes_reset = scratch.members.len();
    delta.nodes_visited += scratch.members.len();

    // Seed a repair Dijkstra from the boundary: any outside neighbour offers
    // `dist[outside] + w`. (The updated edge itself participates here with
    // its new weight, covering the "consider all of b's adjacent nodes
    // including a" step of the paper.)
    for &(v, _, _) in &scratch.members {
        let mut best: Option<(Dist, NodeId, u8)> = None;
        for (slot, u, w) in net.neighbors(v) {
            delta.nodes_visited += 1;
            if w == INFINITY || scratch.slot(u).is_some() {
                continue;
            }
            let cand = dist_add(tree.dist[u.index()], w);
            if cand < INFINITY && best.is_none_or(|(bd, _, _)| cand < bd) {
                // `slot` indexes v's own adjacency list, which is exactly
                // what parent_slot stores.
                best = Some((cand, u, slot));
            }
        }
        if let Some((d, u, s)) = best {
            tree.dist[v.index()] = d;
            tree.parent[v.index()] = u;
            tree.parent_slot[v.index()] = s;
            scratch.heap.push(Reverse((d, v)));
        }
    }
    // Interior relaxation within the subtree.
    while let Some(Reverse((d, u))) = scratch.heap.pop() {
        if d > tree.dist[u.index()] {
            continue;
        }
        for (slot, v, w) in net.neighbors(u) {
            delta.nodes_visited += 1;
            if w == INFINITY || scratch.slot(v).is_none() {
                continue;
            }
            let nd = dist_add(d, w);
            if nd < tree.dist[v.index()] {
                tree.dist[v.index()] = nd;
                tree.parent[v.index()] = u;
                tree.parent_slot[v.index()] = net.reverse_slot(u, slot);
                scratch.heap.push(Reverse((nd, v)));
            }
        }
    }

    for &(v, old_d, old_p) in &scratch.members {
        let nd = tree.dist[v.index()];
        if nd != old_d || tree.parent[v.index()] != old_p {
            delta.changed.push((v, old_d, nd));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{grid, random_planar, PlanarConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(seed: u64) -> (RoadNetwork, ObjectSet, SpanningForest) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_planar(
            &PlanarConfig {
                num_nodes: 300,
                ..Default::default()
            },
            &mut rng,
        );
        let objs = ObjectSet::uniform(&net, 0.03, &mut rng);
        let forest = SpanningForest::build(&net, &objs);
        (net, objs, forest)
    }

    #[test]
    fn build_matches_dijkstra() {
        let (net, objs, forest) = setup(1);
        forest.validate(&net, &objs).unwrap();
    }

    #[test]
    fn decrease_weight_repairs_forest() {
        let (mut net, objs, mut forest) = setup(2);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let u = NodeId(rng.gen_range(0..net.num_nodes() as u32));
            let nbrs: Vec<_> = net.neighbors(u).collect();
            let (_, v, w) = nbrs[rng.gen_range(0..nbrs.len())];
            if w > 1 {
                forest.update_edge(&mut net, u, v, w - 1);
            }
        }
        forest.validate(&net, &objs).unwrap();
    }

    #[test]
    fn increase_weight_repairs_forest() {
        let (mut net, objs, mut forest) = setup(3);
        let mut rng = StdRng::seed_from_u64(100);
        for _ in 0..20 {
            let u = NodeId(rng.gen_range(0..net.num_nodes() as u32));
            let nbrs: Vec<_> = net.neighbors(u).collect();
            let (_, v, w) = nbrs[rng.gen_range(0..nbrs.len())];
            if w != INFINITY {
                forest.update_edge(&mut net, u, v, w + 7);
            }
        }
        forest.validate(&net, &objs).unwrap();
    }

    #[test]
    fn remove_and_reinsert_edge_repairs_forest() {
        let (mut net, objs, mut forest) = setup(4);
        // Remove a well-used edge.
        let (a, b) = {
            let mut best = (NodeId(0), NodeId(0), 0usize);
            for u in net.nodes() {
                for (_, v, _) in net.neighbors(u) {
                    if u < v {
                        let c = forest.objects_using_edge(u, v).len();
                        if c > best.2 {
                            best = (u, v, c);
                        }
                    }
                }
            }
            (best.0, best.1)
        };
        let old_w = net.edge_weight(a, b).unwrap();
        let delta = forest.update_edge(&mut net, a, b, INFINITY);
        assert!(
            !delta.per_object.is_empty(),
            "removing a used edge changes trees"
        );
        forest.validate(&net, &objs).unwrap();
        forest.update_edge(&mut net, a, b, old_w);
        forest.validate(&net, &objs).unwrap();
    }

    #[test]
    fn unused_edge_increase_changes_nothing() {
        let (mut net, _objs, mut forest) = setup(5);
        // Find an edge used by no tree.
        let mut target = None;
        'outer: for u in net.nodes() {
            for (_, v, w) in net.neighbors(u) {
                if u < v && w != INFINITY && forest.objects_using_edge(u, v).is_empty() {
                    target = Some((u, v, w));
                    break 'outer;
                }
            }
        }
        if let Some((u, v, w)) = target {
            let delta = forest.update_edge(&mut net, u, v, w + 1);
            assert_eq!(delta.touched_entries(), 0);
        }
    }

    #[test]
    fn delta_reports_exact_changes() {
        let (mut net, objs, mut forest) = setup(6);
        let before: Vec<Vec<Dist>> = objs
            .objects()
            .map(|o| forest.tree(o).dist.clone())
            .collect();
        let u = NodeId(0);
        let (_, v, w) = net.neighbors(u).next().unwrap();
        let delta = forest.update_edge(&mut net, u, v, if w > 1 { w - 1 } else { w + 5 });
        for td in &delta.per_object {
            for &(n, old_d, new_d) in &td.changed {
                assert_eq!(before[td.object.index()][n.index()], old_d);
                assert_eq!(forest.dist(td.object, n), new_d);
            }
        }
        // Nodes not in the delta are untouched.
        for (oi, old_dists) in before.iter().enumerate() {
            let touched: Vec<NodeId> = delta
                .per_object
                .iter()
                .filter(|td| td.object.index() == oi)
                .flat_map(|td| td.changed.iter().map(|c| c.0))
                .collect();
            for n in net.nodes() {
                if !touched.contains(&n) {
                    assert_eq!(old_dists[n.index()], forest.dist(ObjectId(oi as u32), n));
                }
            }
        }
    }

    #[test]
    fn repair_work_is_bounded_by_damage_not_network_size() {
        // Every update kind — increase, decrease, removal, re-insertion —
        // looks at no more than the nodes it resets and their neighbours
        // (collecting, seeding and relaxing each scan a member's adjacency
        // once), so work never scales with the node count.
        let (mut net, objs, mut forest) = setup(9);
        let max_degree = net.nodes().map(|u| net.neighbors(u).count()).max().unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let mut removed = Vec::new();
        let mut kinds = [0usize; 4];
        for round in 0..80 {
            let u = NodeId(rng.gen_range(0..net.num_nodes() as u32));
            let live: Vec<_> = net.neighbors(u).filter(|e| e.2 != INFINITY).collect();
            let (a, b, w) = match round % 4 {
                3 if !removed.is_empty() => removed.pop().unwrap(),
                _ if live.is_empty() => continue,
                kind => {
                    let (_, v, w) = live[rng.gen_range(0..live.len())];
                    match kind {
                        0 => (u, v, w + 9),
                        1 => (u, v, w.max(2) - 1),
                        _ => {
                            removed.push((u, v, w));
                            (u, v, INFINITY)
                        }
                    }
                }
            };
            let delta = forest.update_edge(&mut net, a, b, w);
            for td in &delta.per_object {
                assert!(td.changed.len() <= td.nodes_reset);
                assert!(td.nodes_reset <= td.nodes_visited);
            }
            assert!(
                delta.nodes_visited() <= 4 * delta.nodes_reset() * (max_degree + 1),
                "round {round}: visited {} for {} reset",
                delta.nodes_visited(),
                delta.nodes_reset()
            );
            kinds[round % 4] += usize::from(delta.nodes_reset() > 0);
        }
        assert!(
            kinds.iter().all(|&k| k > 0),
            "a kind did no work: {kinds:?}"
        );
        forest.validate(&net, &objs).unwrap();
    }

    #[test]
    fn stamp_rollover_keeps_repairs_exact() {
        // Park the stamp counter just below the point where it re-zeroes:
        // the repairs that straddle the rollover must behave like any other.
        let (mut net, objs, mut forest) = setup(10);
        forest.scratch.base = u32::MAX - net.num_nodes() as u32 - 2;
        let mut rng = StdRng::seed_from_u64(11);
        for round in 0..12 {
            let u = NodeId(rng.gen_range(0..net.num_nodes() as u32));
            let (_, v, w) = net.neighbors(u).next().unwrap();
            let new_w = if round % 2 == 0 { w + 6 } else { w.max(2) - 1 };
            forest.update_edge(&mut net, u, v, new_w);
            forest.validate(&net, &objs).unwrap();
        }
        assert!(
            forest.scratch.base < u32::MAX / 2,
            "counter never rolled over"
        );
    }

    #[test]
    fn grid_update_is_local() {
        // On a big grid, a small weight change far from most objects should
        // touch only a bounded region — the locality claim of §5.4.
        let net0 = grid(30, 30);
        let mut net = net0.clone();
        let objs = ObjectSet::from_nodes(&net, vec![NodeId(0), NodeId(899)]);
        let mut forest = SpanningForest::build(&net, &objs);
        // Bump one central edge's weight slightly.
        let delta = forest.update_edge(&mut net, NodeId(435), NodeId(436), 2);
        let total: usize = delta.touched_entries();
        assert!(
            total < 2 * net.num_nodes() / 2,
            "update touched {total} entries; should be a fraction of the grid"
        );
        forest.validate(&net, &objs).unwrap();
    }
}
