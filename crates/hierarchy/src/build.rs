//! CH preprocessing: edge-difference node ordering and shortcut insertion.
//!
//! Contraction works on a mutable *overlay* of the road network: the
//! original (non-removed) edges plus every shortcut added so far, with
//! contracted nodes detached as they go. Removing node `v` must preserve
//! all pairwise distances among the remaining nodes, so for every pair of
//! current neighbors `(u, w)` a bounded *witness search* from `u` avoiding
//! `v` decides whether the path `u–v–w` is dispensable; if no witness of
//! length ≤ `w(u,v) + w(v,w)` exists, the shortcut `(u, w)` is inserted
//! with that weight and `v` recorded as its middle node (for unpacking).
//!
//! Witness searches are Dijkstra runs on the overlay through
//! [`SsspWorkspace`]'s external API, bounded two ways: by the target
//! distance (keys past the limit cannot matter) and by a settled-node cap
//! ([`ChConfig::witness_cap`]). A truncated search conservatively inserts
//! the shortcut — its weight is still the length of a real path, so query
//! answers stay exact; only the arc count grows.
//!
//! Node order is picked by a lazily-updated priority queue over
//! `8·edge_difference + 2·deleted_neighbors`, the standard cheap heuristic:
//! edge difference (shortcuts added minus arcs removed) keeps the hierarchy
//! sparse, the deleted-neighbors term spreads contraction uniformly across
//! the network. Ties break on a seeded hash of the node id
//! ([`ChConfig::seed`]), making the ordering — and therefore every
//! downstream artifact — deterministic for a given seed.
//!
//! # Repair
//!
//! After a handful of edge re-weightings almost every contraction step
//! would run exactly as it did, so [`ContractionHierarchy::repaired`]
//! replays the contraction **in the order the hierarchy already has** and
//! redoes only the steps that could differ. To know which, a contraction
//! keeps a *record* per node, two flat CSRs private to the hierarchy
//! (≈ 110 B per node on the benchmark network):
//!
//! * its **plan** — the shortcuts `(a, b, weight)` its contraction
//!   inserted, and
//! * its **footprint** — every node whose overlay adjacency its witness
//!   searches scanned.
//!
//! The replay runs a real overlay of the *new* network and tracks the set
//! of overlay arcs whose weight or existence **differs** between the
//! recorded run and this one at the same point of the order: seeded with
//! the re-weighted edges, extended with the node pairs on which a
//! re-contracted node's plan differs from its recorded one, and shrunk when
//! an endpoint is contracted (both runs then detach its arcs). A node whose
//! own arcs and whose footprint's arcs are all outside that set re-applies
//! its recorded plan; any other node goes through the per-node step
//! `build` uses — evaluate, then contract.
//!
//! Why reuse is sound. What a contraction step owes the overlay is: for
//! every neighbour pair `(u, w)` of `v`, either the shortcut of weight
//! `w(u,v) + w(v,w)`, or a path from `u` to `w` avoiding `v` that is no
//! longer. A recorded witness is such a path, and every node on it but the
//! last was scanned — it is in the footprint — so each of its arcs hangs
//! off a footprint node. If no arc at a footprint node differs, the path
//! exists unchanged in the new overlay; if no arc at `v` differs, `v` has
//! the same neighbours at the same weights, so the recorded shortcuts
//! carry the right weights and the pairs without one still have their
//! witness. That is all a witness search — truncated or not — ever
//! promises; a change it never looked at may have created a witness the
//! recorded plan does not use, which costs a redundant shortcut, not an
//! answer. Hence the repaired hierarchy is *a* hierarchy of the network in
//! that order, exact for every query, though not necessarily arc for arc
//! the one a full replay finds (in practice it is: identical on every
//! epoch of the benchmark's schedule). Hub labels, being canonical for an
//! order and a metric, cannot tell the difference.

use dsi_graph::{Dist, NodeId, RoadNetwork, SsspWorkspace, INFINITY, NO_NODE};

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Preprocessing parameters.
#[derive(Clone, Copy, Debug)]
pub struct ChConfig {
    /// Seed for the deterministic ordering tie-break.
    pub seed: u64,
    /// Settled-node cap per witness search. Lower is faster but inserts
    /// more (still-correct) shortcuts; `usize::MAX` means exact witnesses.
    pub witness_cap: usize,
}

impl Default for ChConfig {
    fn default() -> Self {
        ChConfig {
            seed: 0xC4_5EED,
            witness_cap: 256,
        }
    }
}

/// One upward arc of the finished hierarchy: from its owner (the
/// lower-ranked endpoint) to `to`, of length `weight`. `middle` is the
/// contracted node this shortcut bridges, or [`NO_NODE`] for an original
/// road-network edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpArc {
    pub to: NodeId,
    pub weight: Dist,
    pub middle: NodeId,
}

/// An arc of the mutable contraction overlay (same shape as [`UpArc`], but
/// lists are kept symmetric and shrink as nodes are detached).
#[derive(Clone, Copy, Debug)]
struct OvArc {
    to: NodeId,
    weight: Dist,
    middle: NodeId,
}

/// The finished hierarchy: per-node rank, upward arcs in CSR form, and the
/// mirrored downward arcs used by the PHAST sweep.
#[derive(Clone, Debug)]
pub struct ContractionHierarchy {
    pub(crate) n: usize,
    /// `rank[v]` = position of `v` in contraction order (0 = first).
    rank: Vec<u32>,
    /// `order[r]` = node with rank `r`.
    pub(crate) order: Vec<NodeId>,
    /// CSR over nodes: `up_arcs[up_index[v]..up_index[v+1]]` are `v`'s
    /// arcs toward higher-ranked nodes.
    up_index: Vec<u32>,
    up_arcs: Vec<UpArc>,
    /// CSR mirror of `up_arcs` for the PHAST sweep, laid out in
    /// *descending rank* order: segment `i` holds the downward arcs of
    /// `order[n-1-i]`, so the sweep walks `sweep_arcs` strictly
    /// sequentially.
    pub(crate) sweep_index: Vec<u32>,
    pub(crate) sweep_arcs: Vec<(NodeId, Dist)>,
    /// Max upward-arc weight: the key step bound for upward searches.
    pub(crate) up_step_bound: Dist,
    num_shortcuts: u32,
    /// What contraction did per node, for [`Self::repaired`].
    record: Record,
}

/// The contraction record: per node, in contraction order (row `r` belongs
/// to `order[r]`), the shortcuts its contraction inserted and the nodes
/// whose overlay adjacency its witness searches read. Two flat CSRs.
#[derive(Clone, Debug)]
struct Record {
    /// The cap the recorded witness searches ran under.
    witness_cap: usize,
    plan_index: Vec<u32>,
    plans: Vec<(NodeId, NodeId, Dist)>,
    footprint_index: Vec<u32>,
    footprints: Vec<NodeId>,
}

impl Record {
    /// Shortcuts `order[r]` inserted, as `(a, b, weight)`.
    fn plan(&self, r: usize) -> &[(NodeId, NodeId, Dist)] {
        &self.plans[self.plan_index[r] as usize..self.plan_index[r + 1] as usize]
    }

    /// Nodes whose adjacency the witness searches of `order[r]` scanned.
    fn footprint(&self, r: usize) -> &[NodeId] {
        &self.footprints[self.footprint_index[r] as usize..self.footprint_index[r + 1] as usize]
    }
}

/// A contraction in progress: the overlay, the per-node step ([`evaluate`]
/// then [`contract`]) and everything the finished hierarchy is made of.
/// [`ContractionHierarchy::build`] drives it in priority order,
/// [`ContractionHierarchy::repaired`] in a recorded one.
///
/// [`evaluate`]: Contraction::evaluate
/// [`contract`]: Contraction::contract
struct Contraction {
    n: usize,
    overlay: Vec<Vec<OvArc>>,
    /// Max overlay arc weight so far: the witness searches' key step bound.
    max_w: Dist,
    /// Contracted neighbours per node (the ordering heuristic's spread term).
    deleted: Vec<u32>,
    ws: SsspWorkspace,
    /// The shortcuts the next [`Self::contract`] inserts and the footprint
    /// it records: left by [`Self::evaluate`], or recalled from a record.
    plan: Vec<(NodeId, NodeId, Dist)>,
    footprint: Vec<NodeId>,
    /// `seen[x] == r + 1` ⇔ `x` is already in the recorded footprint of
    /// the node being contracted at rank `r`.
    seen: Vec<u32>,
    rank: Vec<u32>,
    order: Vec<NodeId>,
    up_lists: Vec<Vec<UpArc>>,
    num_shortcuts: u32,
    record: Record,
}

impl Contraction {
    /// Overlay = `net`'s current (non-removed) edges; parallel edges
    /// collapse to their minimum, self-loops never help a shortest path.
    fn start(net: &RoadNetwork, witness_cap: usize) -> Contraction {
        let n = net.num_nodes();
        let mut overlay: Vec<Vec<OvArc>> = vec![Vec::new(); n];
        let mut max_w: Dist = 1;
        for u in net.nodes() {
            for (_, v, w) in net.neighbors(u) {
                if w == INFINITY || v == u || v.index() < u.index() {
                    continue;
                }
                add_arc(&mut overlay, u, v, w, NO_NODE);
                max_w = max_w.max(w);
            }
        }
        Contraction {
            n,
            overlay,
            max_w,
            deleted: vec![0; n],
            ws: SsspWorkspace::new(),
            plan: Vec::new(),
            footprint: Vec::new(),
            seen: vec![0; n],
            rank: vec![0; n],
            order: Vec::with_capacity(n),
            up_lists: vec![Vec::new(); n],
            num_shortcuts: 0,
            record: Record {
                witness_cap,
                plan_index: vec![0],
                plans: Vec::new(),
                footprint_index: vec![0],
                footprints: Vec::new(),
            },
        }
    }

    /// `v`'s contraction priority on the overlay as it stands, leaving the
    /// shortcuts its contraction would insert in `plan` and the nodes the
    /// witness searches scanned in `footprint`.
    fn evaluate(&mut self, v: NodeId) -> i64 {
        priority(
            &self.overlay,
            v,
            self.deleted[v.index()],
            &mut self.ws,
            &mut self.plan,
            &mut self.footprint,
            self.record.witness_cap,
            self.max_w,
            self.n,
        )
    }

    /// Contract `v`: insert `plan`, record it with `footprint`, keep `v`'s
    /// remaining arcs as its upward arcs (every remaining neighbour
    /// outranks it) and detach it from the overlay.
    fn contract(&mut self, v: NodeId) {
        for &(a, b, through) in &self.plan {
            if add_arc(&mut self.overlay, a, b, through, v) {
                self.num_shortcuts += 1;
            }
            self.max_w = self.max_w.max(through);
        }
        self.record.plans.extend_from_slice(&self.plan);
        self.record.plan_index.push(self.record.plans.len() as u32);
        // Searches from different neighbours scan the same nodes over and
        // over; the record keeps each once. `v`'s rank + 1 is a stamp no
        // earlier contraction used.
        let (seen, stamp) = (&mut self.seen, self.order.len() as u32 + 1);
        self.record.footprints.extend(
            self.footprint
                .iter()
                .filter(|x| std::mem::replace(&mut seen[x.index()], stamp) != stamp),
        );
        self.record
            .footprint_index
            .push(self.record.footprints.len() as u32);

        let arcs = std::mem::take(&mut self.overlay[v.index()]);
        for a in &arcs {
            self.overlay[a.to.index()].retain(|b| b.to != v);
            self.deleted[a.to.index()] += 1;
        }
        self.up_lists[v.index()] = arcs
            .iter()
            .map(|a| UpArc {
                to: a.to,
                weight: a.weight,
                middle: a.middle,
            })
            .collect();
        self.rank[v.index()] = self.order.len() as u32;
        self.order.push(v);
    }

    fn finish(mut self) -> ContractionHierarchy {
        debug_assert_eq!(self.order.len(), self.n);
        self.record.plans.shrink_to_fit();
        self.record.footprints.shrink_to_fit();
        ContractionHierarchy::from_up_lists(
            self.n,
            self.rank,
            self.order,
            self.up_lists,
            self.num_shortcuts,
            self.record,
        )
    }
}

impl ContractionHierarchy {
    /// Contract `net` into a hierarchy. Deterministic for a given
    /// `cfg.seed` — identical ranks, shortcuts, and arc order every run.
    pub fn build(net: &RoadNetwork, cfg: &ChConfig) -> ContractionHierarchy {
        let n = net.num_nodes();
        let mut c = Contraction::start(net, cfg.witness_cap);

        // Lazy-update ordering queue: (priority, seeded tie, node id).
        let mut heap: BinaryHeap<Reverse<(i64, u64, u32)>> = BinaryHeap::with_capacity(n);
        for v in 0..n as u32 {
            let p = c.evaluate(NodeId(v));
            heap.push(Reverse((p, tie_break(cfg.seed, v), v)));
        }
        let mut alive = vec![true; n];
        while let Some(Reverse((_, t, vi))) = heap.pop() {
            let v = NodeId(vi);
            if !alive[v.index()] {
                continue;
            }
            // Lazy update: the node's surroundings may have changed since
            // it was queued. Recompute; if it no longer beats the queue
            // head, requeue and try again.
            let p = c.evaluate(v);
            if let Some(&Reverse(top)) = heap.peek() {
                if (p, t, vi) > top {
                    heap.push(Reverse((p, t, vi)));
                    continue;
                }
            }
            // The evaluation above still describes the overlay: contract.
            c.contract(v);
            alive[v.index()] = false;
        }
        c.finish()
    }

    /// The hierarchy of `net` in **this hierarchy's order**, re-contracting
    /// only the nodes whose witness searches could have seen a change (see
    /// the module docs); returns it with the number of nodes re-contracted.
    ///
    /// `self` must be a hierarchy of a network with `net`'s edges, and
    /// `changed` must name every edge whose weight may differ between that
    /// network and `net`, as `(a, b, weight it had then)`, oldest change
    /// first — an edge listed twice is judged by its first entry, and one
    /// whose weight is what it was costs nothing.
    pub fn repaired(
        &self,
        net: &RoadNetwork,
        changed: &[(NodeId, NodeId, Dist)],
    ) -> (ContractionHierarchy, usize) {
        assert_eq!(net.num_nodes(), self.n, "repair over a different network");
        let old = &self.record;
        let mut c = Contraction::start(net, old.witness_cap);

        // Overlay arcs whose weight or existence differs between the
        // recorded run and this one, as symmetric per-node lists.
        let mut differing: Vec<Vec<NodeId>> = vec![Vec::new(); self.n];
        let mut seen = HashSet::with_capacity(changed.len());
        for &(a, b, old_w) in changed {
            if seen.insert((a.min(b), a.max(b))) && net.edge_weight(a, b) != Some(old_w) {
                mark_differing(&mut differing, a, b);
            }
        }

        let mut recontracted = 0;
        for (r, &v) in self.order.iter().enumerate() {
            let clean = |x: &NodeId| differing[x.index()].is_empty();
            if clean(&v) && old.footprint(r).iter().all(clean) {
                c.plan.clear();
                c.plan.extend_from_slice(old.plan(r));
                c.footprint.clear();
                c.footprint.extend_from_slice(old.footprint(r));
            } else {
                c.evaluate(v);
                recontracted += 1;
                plan_differences(old.plan(r), &c.plan, |a, b| {
                    mark_differing(&mut differing, a, b)
                });
            }
            c.contract(v);
            // Both runs have now detached `v`: its arcs differ no more.
            for u in std::mem::take(&mut differing[v.index()]) {
                differing[u.index()].retain(|&x| x != v);
            }
        }
        (c.finish(), recontracted)
    }

    /// Assemble the CSR arrays from a finished contraction.
    fn from_up_lists(
        n: usize,
        rank: Vec<u32>,
        order: Vec<NodeId>,
        up_lists: Vec<Vec<UpArc>>,
        num_shortcuts: u32,
        record: Record,
    ) -> ContractionHierarchy {
        let mut up_index = Vec::with_capacity(n + 1);
        up_index.push(0u32);
        let mut up_arcs = Vec::new();
        let mut up_step_bound: Dist = 1;
        let mut down_lists: Vec<Vec<(NodeId, Dist)>> = vec![Vec::new(); n];
        for (v, list) in up_lists.iter().enumerate() {
            for a in list {
                up_arcs.push(*a);
                up_step_bound = up_step_bound.max(a.weight);
                down_lists[a.to.index()].push((NodeId(v as u32), a.weight));
            }
            up_index.push(up_arcs.len() as u32);
        }
        let mut sweep_index = Vec::with_capacity(n + 1);
        sweep_index.push(0u32);
        let mut sweep_arcs = Vec::with_capacity(up_arcs.len());
        for i in (0..n).rev() {
            sweep_arcs.extend_from_slice(&down_lists[order[i].index()]);
            sweep_index.push(sweep_arcs.len() as u32);
        }
        ContractionHierarchy {
            n,
            rank,
            order,
            up_index,
            up_arcs,
            sweep_index,
            sweep_arcs,
            up_step_bound,
            num_shortcuts,
            record,
        }
    }

    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Contraction rank of `v` (0 = contracted first = lowest).
    #[inline]
    pub fn rank_of(&self, v: NodeId) -> u32 {
        self.rank[v.index()]
    }

    /// Nodes in ascending rank order.
    #[inline]
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// `v`'s arcs toward higher-ranked nodes.
    #[inline]
    pub fn up_arcs_of(&self, v: NodeId) -> &[UpArc] {
        &self.up_arcs[self.up_index[v.index()] as usize..self.up_index[v.index() + 1] as usize]
    }

    /// Shortcut arcs added on top of the original edges.
    #[inline]
    pub fn num_shortcuts(&self) -> u32 {
        self.num_shortcuts
    }

    /// Total upward arcs (original + shortcut).
    #[inline]
    pub fn num_up_arcs(&self) -> usize {
        self.up_arcs.len()
    }

    /// Max upward-arc weight: the monotone-queue step bound for searches
    /// over this hierarchy.
    #[inline]
    pub fn up_step_bound(&self) -> Dist {
        self.up_step_bound
    }

    /// The hierarchy arc between `u` and `v` (stored on the lower-ranked
    /// endpoint), as `(weight, middle)`.
    pub fn arc_between(&self, u: NodeId, v: NodeId) -> Option<(Dist, NodeId)> {
        let (lo, hi) = if self.rank[u.index()] < self.rank[v.index()] {
            (u, v)
        } else {
            (v, u)
        };
        self.up_arcs_of(lo)
            .iter()
            .find(|a| a.to == hi)
            .map(|a| (a.weight, a.middle))
    }

    /// Expand the hierarchy arc `u – v` into the original-edge path it
    /// stands for, as `(from, to, weight)` segments from `u` to `v`.
    /// Shortcuts recurse through their middle nodes; an original edge
    /// yields itself. Panics if no arc joins `u` and `v`.
    pub fn unpack_arc(&self, u: NodeId, v: NodeId) -> Vec<(NodeId, NodeId, Dist)> {
        let mut out = Vec::new();
        self.unpack_into(u, v, &mut out);
        out
    }

    fn unpack_into(&self, u: NodeId, v: NodeId, out: &mut Vec<(NodeId, NodeId, Dist)>) {
        let (w, middle) = self
            .arc_between(u, v)
            .unwrap_or_else(|| panic!("no hierarchy arc between {u} and {v}"));
        if middle == NO_NODE {
            out.push((u, v, w));
        } else {
            self.unpack_into(u, middle, out);
            self.unpack_into(middle, v, out);
        }
    }
}

/// SplitMix64 finalizer over `seed ^ node`: the deterministic ordering
/// tie-break.
fn tie_break(seed: u64, node: u32) -> u64 {
    let mut z = seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Insert or improve the symmetric overlay arc `u – v` of weight `w` via
/// `middle`. Returns `true` if this created a new arc (vs improving or
/// being dominated by an existing one).
fn add_arc(overlay: &mut [Vec<OvArc>], u: NodeId, v: NodeId, w: Dist, middle: NodeId) -> bool {
    if let Some(a) = overlay[u.index()].iter_mut().find(|a| a.to == v) {
        if w < a.weight {
            a.weight = w;
            a.middle = middle;
            let back = overlay[v.index()]
                .iter_mut()
                .find(|a| a.to == u)
                .expect("overlay arcs are symmetric");
            back.weight = w;
            back.middle = middle;
        }
        return false;
    }
    overlay[u.index()].push(OvArc {
        to: v,
        weight: w,
        middle,
    });
    overlay[v.index()].push(OvArc {
        to: u,
        weight: w,
        middle,
    });
    true
}

/// Add `{a, b}` to the symmetric per-node lists of differing arcs.
fn mark_differing(differing: &mut [Vec<NodeId>], a: NodeId, b: NodeId) {
    if a != b && !differing[a.index()].contains(&b) {
        differing[a.index()].push(b);
        differing[b.index()].push(a);
    }
}

/// Call `mark` on every node pair that one of two plans of the same node
/// bridges and the other does not, or bridges at another weight.
fn plan_differences(
    old: &[(NodeId, NodeId, Dist)],
    new: &[(NodeId, NodeId, Dist)],
    mut mark: impl FnMut(NodeId, NodeId),
) {
    if old == new {
        return;
    }
    let same = |x: &(NodeId, NodeId, Dist), y: &(NodeId, NodeId, Dist)| {
        x.2 == y.2 && ((x.0, x.1) == (y.0, y.1) || (x.0, x.1) == (y.1, y.0))
    };
    for x in old.iter().filter(|x| !new.iter().any(|y| same(x, y))) {
        mark(x.0, x.1);
    }
    for y in new.iter().filter(|y| !old.iter().any(|x| same(x, y))) {
        mark(y.0, y.1);
    }
}

/// Compute `v`'s contraction priority and leave the shortcut set its
/// contraction would insert in `plan`, and every node whose adjacency the
/// witness searches scanned in `footprint` (repeats included).
///
/// For every neighbor pair `(u, w)` the path `u–v–w` needs a shortcut
/// unless a witness search from `u`, avoiding `v`, reaches `w` within
/// `w(u,v) + w(v,w)`. One bounded search per source `u` covers all its
/// pair partners.
#[allow(clippy::too_many_arguments)]
fn priority(
    overlay: &[Vec<OvArc>],
    v: NodeId,
    deleted: u32,
    ws: &mut SsspWorkspace,
    plan: &mut Vec<(NodeId, NodeId, Dist)>,
    footprint: &mut Vec<NodeId>,
    witness_cap: usize,
    step_bound: Dist,
    n: usize,
) -> i64 {
    plan.clear();
    footprint.clear();
    let nbrs = &overlay[v.index()];
    for i in 0..nbrs.len() {
        let (u, wu) = (nbrs[i].to, nbrs[i].weight);
        let Some(rest_max) = nbrs[i + 1..].iter().map(|a| a.weight).max() else {
            break;
        };
        witness_search(
            overlay,
            ws,
            u,
            v,
            wu.saturating_add(rest_max),
            witness_cap,
            step_bound,
            n,
            footprint,
        );
        for a in &nbrs[i + 1..] {
            let through = wu.saturating_add(a.weight);
            // `ws.dist` is an upper bound on the best witness (searches
            // may be truncated), so a missing witness is conservative:
            // the shortcut weight is still a real path length.
            if ws.dist(a.to) > through {
                plan.push((u, a.to, through));
            }
        }
    }
    (plan.len() as i64 - nbrs.len() as i64) * 8 + deleted as i64 * 2
}

/// Bounded Dijkstra from `source` on the overlay, never entering
/// `excluded`; stops once popped keys reach `limit` or `cap` nodes
/// settled. Labels left in `ws` are valid path lengths avoiding
/// `excluded`, each over a path whose every node but the last was scanned
/// — and pushed onto `footprint`.
#[allow(clippy::too_many_arguments)]
fn witness_search(
    overlay: &[Vec<OvArc>],
    ws: &mut SsspWorkspace,
    source: NodeId,
    excluded: NodeId,
    limit: Dist,
    cap: usize,
    step_bound: Dist,
    n: usize,
    footprint: &mut Vec<NodeId>,
) {
    ws.begin_external(n, step_bound);
    ws.improve(source, 0);
    let mut settled = 0usize;
    while let Some((x, d)) = ws.pop_settled() {
        settled += 1;
        if d >= limit || settled >= cap {
            break;
        }
        footprint.push(x);
        for a in &overlay[x.index()] {
            if a.to != excluded {
                ws.improve(a.to, d + a.weight);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_graph::generate::grid;

    #[test]
    fn every_node_gets_a_unique_rank() {
        let g = grid(8, 8);
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        let mut seen = vec![false; g.num_nodes()];
        for v in g.nodes() {
            let r = ch.rank_of(v) as usize;
            assert!(!seen[r], "duplicate rank {r}");
            seen[r] = true;
            assert_eq!(ch.order()[r], v);
        }
    }

    #[test]
    fn up_arcs_point_strictly_upward() {
        let g = grid(10, 10);
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        let mut arcs = 0;
        for v in g.nodes() {
            for a in ch.up_arcs_of(v) {
                assert!(ch.rank_of(a.to) > ch.rank_of(v));
                arcs += 1;
            }
        }
        assert_eq!(arcs, ch.num_up_arcs());
        assert_eq!(
            arcs,
            g.num_edges() + ch.num_shortcuts() as usize,
            "every original edge plus every shortcut appears exactly once"
        );
    }

    #[test]
    fn same_seed_is_deterministic_and_seeds_differ() {
        let g = grid(9, 9);
        let a = ContractionHierarchy::build(&g, &ChConfig::default());
        let b = ContractionHierarchy::build(&g, &ChConfig::default());
        assert_eq!(a.rank, b.rank);
        assert_eq!(a.up_arcs, b.up_arcs);
        let c = ContractionHierarchy::build(
            &g,
            &ChConfig {
                seed: 99,
                ..Default::default()
            },
        );
        // On a symmetric grid the ordering is pure tie-break, so a new
        // seed virtually always permutes it.
        assert_ne!(a.rank, c.rank, "tie-break ignored the seed");
    }

    #[test]
    fn repair_judges_an_edge_by_its_first_log_entry() {
        let mut g = grid(8, 8);
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        let (a, b) = (NodeId(0), NodeId(1));
        let w0 = g.edge_weight(a, b).expect("grid edge");
        // Raised and put back: two log entries, nothing to redo.
        let (same, redone) = ch.repaired(&g, &[(a, b, w0), (b, a, w0 + 5)]);
        assert_eq!(redone, 0);
        assert_eq!(same.up_arcs, ch.up_arcs);
        // Raised twice: the later entry's "before" equals the weight now,
        // the first one's does not.
        g.set_edge_weight(a, b, w0 + 5);
        let (new, redone) = ch.repaired(&g, &[(a, b, w0), (a, b, w0 + 5)]);
        assert!(redone > 0);
        assert_eq!(new.order, ch.order);
        let mut ws = crate::ChWorkspace::new();
        let tree = dsi_graph::sssp(&g, a);
        for t in g.nodes() {
            assert_eq!(new.p2p(a, t, &mut ws), tree.dist[t.index()]);
        }
    }

    #[test]
    fn truncated_witnesses_only_add_arcs() {
        let g = grid(8, 8);
        let exact = ContractionHierarchy::build(
            &g,
            &ChConfig {
                witness_cap: usize::MAX,
                ..Default::default()
            },
        );
        let lazy = ContractionHierarchy::build(
            &g,
            &ChConfig {
                witness_cap: 3,
                ..Default::default()
            },
        );
        assert!(lazy.num_up_arcs() >= exact.num_up_arcs());
        // Both must answer identically (checked exhaustively in the
        // query-module tests; here just spot distances).
        let mut wa = crate::ChWorkspace::new();
        let mut wb = crate::ChWorkspace::new();
        for (s, t) in [(0u32, 63u32), (7, 56), (27, 36)] {
            assert_eq!(
                exact.p2p(NodeId(s), NodeId(t), &mut wa),
                lazy.p2p(NodeId(s), NodeId(t), &mut wb)
            );
        }
    }
}
