//! Canonical hub labels built from the contraction hierarchy.
//!
//! A hub label for node `v` is a sorted array of `(hub, distance)` pairs
//! such that for any pair `(s, t)` some shortest `s–t` path has its
//! highest-ranked node in **both** labels: `d(s, t)` is the minimum of
//! `d_s(h) + d_t(h)` over the hubs the two labels share — one linear merge
//! of two sorted arrays, no graph traversal at all. On an undirected
//! network the forward and backward upward graphs coincide, so one label
//! per node serves both query directions.
//!
//! Construction is top-down over the hierarchy (the hierarchical hub
//! labelling of Abraham et al.): walking nodes in descending rank, the
//! candidate label of `v` is `(v, 0)` plus, for every upward arc
//! `(v → u, w)`, the finished label of `u` shifted by `w`, min-folded per
//! hub through a dense scratch array. Nothing canonical is missed — take
//! the first hop `u` of a tight upward path from `v` to a canonical hub
//! `h`: every shortest `u–h` path extends to a shortest `v–h` path, so `h`
//! tops those too and already sits in `L(u)` with its exact distance — and
//! anything else a neighbour's label or a non-tight shortcut (a truncated
//! witness search) contributes is an over-estimate or a dominated hub.
//! Those go in the pruning pass: candidates in descending hub rank,
//! `(h, d)` dropped when some already-kept hub `x` of `v` has
//! `d_v(x) + d_h(x) ≤ d` — one scan of `L(h)` against a dense array of
//! `v`'s kept distances. What survives is the canonical label (every entry
//! exact, none dominated by a higher hub), the same labelling
//! [`HubLabels::build_pruned`] produces for the reversed contraction
//! order, at a cost of `Σ_v |candidates(v)| · |label|` array reads. The
//! build is serial: at 16k nodes it takes ~0.1 s, under half the cost of
//! the hierarchy it reads.
//!
//! [`HubLabels::repaired`] is that loop with one test in front. Given the
//! labels of an older hierarchy of the same order, everything the loop
//! reads while building `L(v)` is: `v`'s upward arcs; the labels of its
//! upward neighbours (the candidates); and, in the pruning pass, the label
//! `L(h)` of *every candidate hub* `h`. So `v` is rebuilt iff
//!
//! 1. its upward arcs differ between the two hierarchies, **or**
//! 2. an upward neighbour's label came out different from its old one,
//!    **or**
//! 3. some hub in an upward neighbour's label has a label that came out
//!    different —
//!
//! and otherwise its old label is the label the loop would produce, and
//! is kept without being looked at. Clauses 2 and 3 are one bit per node,
//! `tainted[u]` = "`L(u)` changed or names a hub whose label changed",
//! known when `u` is finished and free for a kept label: a node that is
//! not rebuilt had no tainted neighbour above it, and its hubs all come
//! from those neighbours' labels. Clause 3 is not optional: a hub's label
//! can change — a distance to a far, higher hub moves — while the labels of
//! everything between stay bit-equal, and the nodes below then prune
//! against a changed `L(h)`. Propagation stops wherever a rebuilt label is
//! bit-equal to the old one and names no changed hub. `build` is the same
//! loop with nothing to compare against, so every node is built.
//!
//! Storage is a flat CSR: `index[v]..index[v+1]` brackets `v`'s entries in
//! two parallel columns, `hubs` and `dists`, hubs sorted ascending by node
//! id so lookups are sorted merges. Each column is `u16` when its data fits
//! and `u32` otherwise: the hub column when `n ≤ 65,536`, the distance
//! column when every stored distance is ≤ 65,535. The widths follow from
//! the content alone (decided where the CSR is laid out), so two label
//! sets with equal content have equal columns and `==` compares content.
//! On a 16k-node road network both columns are narrow and an entry takes
//! 4 bytes instead of 8. Every kernel is generic over the two column types
//! and monomorphised per width pair; the public entry points match on the
//! widths once and run the instance. The pairwise merge is branch-light —
//! both cursors advance by comparison results (`i += (x ≤ y)`,
//! `j += (y ≤ x)`) and a shared hub folds its sum by a select — because
//! which cursor moves next is a coin flip the branch predictor loses about
//! half the time. [`HubLabels::label_of`] hands a label out as an iterator
//! of `(hub, dist)` pairs, whatever the widths. [`LabelBuckets`] inverts a target set's labels (hub →
//! `(target, dist)` rows, each row ascending by distance) so one pass over
//! the source label answers a whole target set: every one-to-many shape —
//! [`HubLabels::one_to_many`], the bounded [`HubLabels::scan_within`], the
//! bucket kNN [`HubLabels::knn`] — is the same loop over `s`'s hubs, and a
//! bound turns each row walk into a prefix walk.

use std::cmp::Reverse;
use std::ops::Range;

use dsi_graph::ids::dist_add;
use dsi_graph::{Dist, NodeId, INFINITY};

use crate::build::ContractionHierarchy;

/// Hub labels for every node, in flat CSR form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HubLabels {
    n: usize,
    /// CSR over nodes: `hubs[index[v]..index[v+1]]` are `v`'s hubs,
    /// ascending by node id; `dists` is parallel to `hubs`.
    index: Vec<u32>,
    hubs: Column,
    dists: Column,
}

/// One label column, `u16` when every value fits and `u32` otherwise.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Column {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

/// A borrowed [`Column`].
#[derive(Clone, Copy, Debug)]
enum Cells<'a> {
    Narrow(&'a [u16]),
    Wide(&'a [u32]),
}

/// A column element, read as a `u32`.
trait Cell: Copy + Ord + Into<u32> {
    #[inline]
    fn get(self) -> u32 {
        self.into()
    }
}

impl Cell for u16 {}
impl Cell for u32 {}

/// Evaluate `$body` with `$h` and `$d` bound to the hub and distance
/// [`Cells`] as slices of their concrete widths: each kernel is generic
/// over the widths, and this one `match` picks its instance.
macro_rules! with_cells {
    ($hubs:expr, $dists:expr, |$h:ident, $d:ident| $body:expr) => {
        match ($hubs, $dists) {
            (Cells::Narrow($h), Cells::Narrow($d)) => $body,
            (Cells::Narrow($h), Cells::Wide($d)) => $body,
            (Cells::Wide($h), Cells::Narrow($d)) => $body,
            (Cells::Wide($h), Cells::Wide($d)) => $body,
        }
    };
}

impl Column {
    /// An empty column wide enough for values up to `max`.
    fn for_max(max: u32) -> Column {
        if max <= u32::from(u16::MAX) {
            Column::Narrow(Vec::new())
        } else {
            Column::Wide(Vec::new())
        }
    }

    fn cells(&self) -> Cells<'_> {
        match self {
            Column::Narrow(c) => Cells::Narrow(c),
            Column::Wide(c) => Cells::Wide(c),
        }
    }

    fn len(&self) -> usize {
        match self {
            Column::Narrow(c) => c.len(),
            Column::Wide(c) => c.len(),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            Column::Narrow(c) => c.len() * std::mem::size_of::<u16>(),
            Column::Wide(c) => c.len() * std::mem::size_of::<u32>(),
        }
    }

    /// The largest value in `range` (0 when it is empty).
    fn max_in(&self, range: Range<usize>) -> u32 {
        match self {
            Column::Narrow(c) => c[range].iter().max().map_or(0, |&x| x.into()),
            Column::Wide(c) => c[range].iter().copied().max().unwrap_or(0),
        }
    }

    /// Append `values`, each within the column's width.
    fn extend(&mut self, values: impl Iterator<Item = u32>) {
        match self {
            Column::Narrow(c) => {
                c.extend(values.map(|x| u16::try_from(x).expect("value fits the u16 column")))
            }
            Column::Wide(c) => c.extend(values),
        }
    }

    /// Append `src[range]`: a slice copy when the widths agree.
    fn extend_from(&mut self, src: &Column, range: Range<usize>) {
        match (self, src) {
            (Column::Narrow(c), Column::Narrow(s)) => c.extend_from_slice(&s[range]),
            (Column::Wide(c), Column::Wide(s)) => c.extend_from_slice(&s[range]),
            (c, Column::Narrow(s)) => c.extend(s[range].iter().map(|&x| x.into())),
            (c, Column::Wide(s)) => c.extend(s[range].iter().copied()),
        }
    }
}

/// The work one [`HubLabels::repaired`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LabelRepair {
    /// Labels run through the builder again.
    pub rebuilt: usize,
    /// Of those, the ones that came out different from the old label.
    pub changed: usize,
}

impl HubLabels {
    /// Canonical labels of `ch`, built top-down (see the module docs).
    /// Deterministic: the same hierarchy always yields the same labels.
    pub fn build(ch: &ContractionHierarchy) -> HubLabels {
        Self::top_down(ch, None).0
    }

    /// The canonical labels of `new_ch` — equal to
    /// [`HubLabels::build`]`(new_ch)` — given that `self` holds those of
    /// `old_ch`: the same top-down loop, rebuilding only the labels whose
    /// inputs moved (the dirty rule in the module docs) and copying the
    /// rest. Hierarchies in different orders share no label, so then every
    /// label is rebuilt.
    pub fn repaired(
        &self,
        old_ch: &ContractionHierarchy,
        new_ch: &ContractionHierarchy,
    ) -> (HubLabels, LabelRepair) {
        let comparable = self.n == old_ch.num_nodes() && old_ch.order() == new_ch.order();
        Self::top_down(new_ch, comparable.then_some((self, old_ch)))
    }

    /// The one label builder. With `base = (labels, hierarchy)` of the same
    /// contraction order, a node whose inputs are provably those of the
    /// base run keeps the base label; without, every node is built.
    fn top_down(
        ch: &ContractionHierarchy,
        base: Option<(&HubLabels, &ContractionHierarchy)>,
    ) -> (HubLabels, LabelRepair) {
        let n = ch.num_nodes();
        // Built labels back to back in build order, each in the order its
        // entries were kept (descending hub rank — the hubs most likely to
        // cover a candidate come first, so the coverage scan exits early),
        // and among them, as stored, the base labels a built one had to
        // read; `span[v]` brackets `v`'s entries, empty while `v` has none
        // here.
        let mut arena: Vec<(NodeId, Dist)> = Vec::new();
        let mut span = vec![(0usize, 0usize); n];
        // `built[v]`: `v` went through the builder. `changed[v]`: and came
        // out different from its base label. `tainted[v]`: `changed[v]`, or
        // some hub of `v`'s label has a changed label.
        let mut built = vec![false; n];
        let mut changed = vec![false; n];
        let mut tainted = vec![false; n];
        let mut work = LabelRepair::default();
        // The largest distance any built label keeps.
        let mut max_dist: Dist = 0;
        // Dense per-hub scratch, all-INFINITY between nodes.
        let mut cand_dist = vec![INFINITY; n];
        let mut kept_dist = vec![INFINITY; n];
        let mut cands: Vec<NodeId> = Vec::new();

        for &v in ch.order().iter().rev() {
            let ups = ch.up_arcs_of(v);
            if let Some((old, old_ch)) = base {
                let was = old_ch.up_arcs_of(v);
                let same_arcs = ups.len() == was.len()
                    && ups
                        .iter()
                        .zip(was)
                        .all(|(a, b)| (a.to, a.weight) == (b.to, b.weight));
                if same_arcs && !ups.iter().any(|a| tainted[a.to.index()]) {
                    continue;
                }
                for a in ups {
                    old.copy_into(a.to, &mut arena, &mut span);
                }
            }
            for a in ups {
                let (lo, hi) = span[a.to.index()];
                for &(h, d) in &arena[lo..hi] {
                    let slot = &mut cand_dist[h.index()];
                    if *slot == INFINITY {
                        cands.push(h);
                    }
                    *slot = (*slot).min(dist_add(a.weight, d));
                }
            }
            // Descending hub rank: when candidate `h` is tested, every hub
            // that could cover it is already kept.
            cands.sort_unstable_by_key(|&h| Reverse(ch.rank_of(h)));
            if let Some((old, _)) = base {
                for &h in &cands {
                    old.copy_into(h, &mut arena, &mut span);
                }
            }
            let start = arena.len();
            for h in cands.drain(..) {
                let d = std::mem::replace(&mut cand_dist[h.index()], INFINITY);
                let (lo, hi) = span[h.index()];
                let covered = arena[lo..hi]
                    .iter()
                    .any(|&(x, dx)| dist_add(kept_dist[x.index()], dx) <= d);
                if !covered {
                    kept_dist[h.index()] = d;
                    max_dist = max_dist.max(d);
                    arena.push((h, d));
                }
            }
            arena.push((v, 0));
            if let Some((old, _)) = base {
                let mut label = old.label_of(v);
                let same = label.len() == arena.len() - start
                    && label.all(|(h, d)| h == v || kept_dist[h.index()] == d);
                changed[v.index()] = !same;
                tainted[v.index()] =
                    !same || arena[start..].iter().any(|&(h, _)| changed[h.index()]);
                work.rebuilt += 1;
                work.changed += usize::from(!same);
            }
            for &(h, _) in &arena[start..] {
                kept_dist[h.index()] = INFINITY;
            }
            span[v.index()] = (start, arena.len());
            built[v.index()] = true;
        }

        // A kept label's distances fit the old column, so only a wide old
        // column can hold one that decides the width.
        if let Some((old, _)) = base.filter(|(old, _)| matches!(old.dists, Column::Wide(_))) {
            for v in (0..n).filter(|&v| !built[v]) {
                max_dist = max_dist.max(old.dists.max_in(old.range_of(NodeId(v as u32))));
            }
        }
        let labels = HubLabels::assemble(n, max_dist, |v, hubs, dists| match base {
            Some((old, _)) if !built[v] => {
                let range = old.range_of(NodeId(v as u32));
                hubs.extend_from(&old.hubs, range.clone());
                dists.extend_from(&old.dists, range);
            }
            _ => {
                let (lo, hi) = span[v];
                arena[lo..hi].sort_unstable_by_key(|&(h, _)| h);
                hubs.extend(arena[lo..hi].iter().map(|&(h, _)| h.0));
                dists.extend(arena[lo..hi].iter().map(|&(_, d)| d));
            }
        });
        (labels, work)
    }

    /// Put `x`'s label where the builder reads labels — appended to
    /// `arena` — unless it is there already.
    fn copy_into(&self, x: NodeId, arena: &mut Vec<(NodeId, Dist)>, span: &mut [(usize, usize)]) {
        if span[x.index()] == (0, 0) {
            let start = arena.len();
            arena.extend(self.label_of(x));
            span[x.index()] = (start, arena.len());
        }
    }

    /// Lay per-node labels out as the CSR, each column at the narrowest
    /// width its content admits: the hubs' by `n`, the distances' by
    /// `max_dist`, the largest distance any label stores.
    /// `push_label(v, hubs, dists)` appends node `v`'s entries, ascending
    /// by hub id.
    fn assemble(
        n: usize,
        max_dist: Dist,
        mut push_label: impl FnMut(usize, &mut Column, &mut Column),
    ) -> HubLabels {
        let mut index = Vec::with_capacity(n + 1);
        index.push(0u32);
        let mut hubs = Column::for_max(n.saturating_sub(1) as u32);
        let mut dists = Column::for_max(max_dist);
        for v in 0..n {
            push_label(v, &mut hubs, &mut dists);
            index.push(hubs.len() as u32);
        }
        HubLabels {
            n,
            index,
            hubs,
            dists,
        }
    }

    /// Build labels by pruned-landmark labelling directly over an
    /// adjacency list — no hierarchy required. `order` ranks nodes
    /// hub-first; for each root in order, a pruned Dijkstra adds the root
    /// as a hub to every node whose pair with the root is not already
    /// covered by earlier (higher-ranked) hubs, and stops expanding at
    /// covered nodes. Labels are exact and minimal for the given order.
    ///
    /// This is the builder for the partition router's boundary-overlay
    /// glue: the overlay's per-region *cliques* (metric closures) give
    /// nodes degrees in the hundreds, where contraction drowns in
    /// witness searches and fill-in — pruned Dijkstras never contract,
    /// so density only costs edge scans. Deterministic for a given
    /// adjacency and order.
    pub fn build_pruned(adj: &[Vec<(NodeId, Dist)>], order: &[NodeId]) -> HubLabels {
        let n = adj.len();
        debug_assert_eq!(order.len(), n);
        let mut labels: Vec<Vec<(NodeId, Dist)>> = vec![Vec::new(); n];
        // Dense view of the current root's label for O(|L(u)|) coverage
        // checks while settling u.
        let mut root_dist = vec![INFINITY; n];
        let mut dist = vec![INFINITY; n];
        let mut touched: Vec<NodeId> = Vec::new();
        let mut heap = std::collections::BinaryHeap::new();
        for &root in order {
            for &(h, d) in &labels[root.index()] {
                root_dist[h.index()] = d;
            }
            dist[root.index()] = 0;
            touched.push(root);
            heap.push(Reverse((0u32, root)));
            while let Some(Reverse((d, u))) = heap.pop() {
                if d > dist[u.index()] {
                    continue;
                }
                // Covered by a shared higher-ranked hub? Then every
                // shortest path through u is too: prune the whole branch.
                let covered = labels[u.index()]
                    .iter()
                    .any(|&(h, hd)| dist_add(root_dist[h.index()], hd) <= d);
                if covered {
                    continue;
                }
                labels[u.index()].push((root, d));
                for &(v, w) in &adj[u.index()] {
                    let nd = dist_add(d, w);
                    if nd < dist[v.index()] {
                        if dist[v.index()] == INFINITY {
                            touched.push(v);
                        }
                        dist[v.index()] = nd;
                        heap.push(Reverse((nd, v)));
                    }
                }
            }
            for &(h, _) in &labels[root.index()] {
                root_dist[h.index()] = INFINITY;
            }
            for t in touched.drain(..) {
                dist[t.index()] = INFINITY;
            }
            heap.clear();
        }

        let max_dist = labels.iter().flatten().map(|&(_, d)| d).max();
        HubLabels::assemble(n, max_dist.unwrap_or(0), |v, hubs, dists| {
            labels[v].sort_unstable_by_key(|&(h, _)| h);
            hubs.extend(labels[v].iter().map(|&(h, _)| h.0));
            dists.extend(labels[v].iter().map(|&(_, d)| d));
        })
    }

    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Total `(hub, dist)` entries across all labels.
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.hubs.len()
    }

    /// Mean entries per label.
    pub fn avg_label_len(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.num_entries() as f64 / self.n as f64
    }

    /// In-memory footprint of the CSR arrays, bytes: 4 per node (plus
    /// one) for the offsets, then 2 or 4 per entry for each column.
    pub fn label_bytes(&self) -> usize {
        self.index.len() * std::mem::size_of::<u32>() + self.hubs.bytes() + self.dists.bytes()
    }

    /// Where `v`'s entries sit in the columns.
    #[inline]
    fn range_of(&self, v: NodeId) -> Range<usize> {
        self.index[v.index()] as usize..self.index[v.index() + 1] as usize
    }

    /// `v`'s label as `(hub, dist)` pairs, hubs ascending.
    #[inline]
    pub fn label_of(&self, v: NodeId) -> Label<'_> {
        let range = self.range_of(v);
        Label {
            hubs: self.hubs.cells().slice(range.clone()),
            dists: self.dists.cells().slice(range),
        }
    }

    /// Exact network distance from `s` to `t` ([`INFINITY`] if no common
    /// hub, i.e. disconnected) by one sorted merge of the two labels.
    #[inline]
    pub fn p2p(&self, s: NodeId, t: NodeId) -> Dist {
        self.p2p_counted(s, t).0
    }

    /// [`p2p`](Self::p2p) plus the number of label entries the merge
    /// advanced over — the unit `OpStats::label_entries_scanned` counts.
    pub fn p2p_counted(&self, s: NodeId, t: NodeId) -> (Dist, u64) {
        let (a, b) = (self.range_of(s), self.range_of(t));
        with_cells!(self.hubs.cells(), self.dists.cells(), |h, d| merge(
            &h[a.clone()],
            &d[a],
            &h[b.clone()],
            &d[b]
        ))
    }

    /// Invert `targets`' labels into hub-grouped buckets for repeated
    /// one-to-many scans against varying sources. A target's *rank* is its
    /// position in `targets`; every hub row comes out ascending by
    /// `(dist, rank)`, which is what lets a bounded scan stop early.
    pub fn buckets(&self, targets: &[NodeId]) -> LabelBuckets {
        let mut counts = vec![0u32; self.n + 1];
        for &t in targets {
            for (h, _) in self.label_of(t) {
                counts[h.index() + 1] += 1;
            }
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let index = counts;
        let mut fill = index.clone();
        let mut entries = vec![(0u32, 0 as Dist); *index.last().unwrap_or(&0) as usize];
        for (rank, &t) in targets.iter().enumerate() {
            for (h, d) in self.label_of(t) {
                let at = fill[h.index()] as usize;
                entries[at] = (rank as u32, d);
                fill[h.index()] += 1;
            }
        }
        for row in index.windows(2) {
            entries[row[0] as usize..row[1] as usize].sort_unstable_by_key(|&(rank, d)| (d, rank));
        }
        LabelBuckets {
            num_targets: targets.len(),
            index,
            entries,
        }
    }

    /// The one bucket loop behind every one-to-many shape: walk `s`'s own
    /// label, skip hubs farther than `bound`, walk each reached row (at most
    /// its first `take` entries) only while `d(s,h) + d(h,t) ≤ bound`, and
    /// min-fold the sums into the dense per-rank `best`. `first_touch` sees
    /// a rank the first time it drops below [`INFINITY`]. Returns the
    /// entries walked (source label + bucket entries).
    fn fold_within(
        &self,
        s: NodeId,
        buckets: &LabelBuckets,
        bound: Dist,
        take: usize,
        best: &mut [Dist],
        first_touch: impl FnMut(u32),
    ) -> u64 {
        let range = self.range_of(s);
        with_cells!(self.hubs.cells(), self.dists.cells(), |h, d| fold_label(
            &h[range.clone()],
            &d[range],
            buckets,
            bound,
            take,
            best,
            first_touch
        ))
    }

    /// Move the folded distances of `out`'s ranks out of `scratch`,
    /// restoring it to all-[`INFINITY`].
    fn drain(scratch: &mut [Dist], out: &mut [(Dist, u32)]) {
        for (d, rank) in out {
            *d = std::mem::replace(&mut scratch[*rank as usize], INFINITY);
        }
    }

    /// One-to-many distances: `out[rank]` = exact distance from `s` to the
    /// target with that rank in the bucket set ([`INFINITY`] when
    /// unreachable). The unbounded case of [`scan_within`](Self::scan_within):
    /// one pass over `s`'s label, every touched row walked whole; returns
    /// the entries scanned.
    pub fn one_to_many(&self, s: NodeId, buckets: &LabelBuckets, out: &mut Vec<Dist>) -> u64 {
        out.clear();
        out.resize(buckets.num_targets, INFINITY);
        self.fold_within(s, buckets, INFINITY, usize::MAX, out, |_| {})
    }

    /// Bounded one-to-many: every target within `bound` of `s`, once, with
    /// its exact distance, as `(dist, rank)` in first-reached order.
    /// Unreachable targets never qualify, whatever the bound. Only hubs
    /// within `bound` of `s` and the row prefixes that can still meet the
    /// bound are walked, so a local query costs what its neighbourhood
    /// holds, not what the target set holds. `scratch` is the dense
    /// per-rank fold buffer: all-[`INFINITY`] on entry (an empty vector
    /// qualifies — it is sized here) and all-[`INFINITY`] again on return.
    /// Returns the entries scanned.
    pub fn scan_within(
        &self,
        s: NodeId,
        buckets: &LabelBuckets,
        bound: Dist,
        scratch: &mut Vec<Dist>,
        out: &mut Vec<(Dist, u32)>,
    ) -> u64 {
        out.clear();
        scratch.resize(buckets.num_targets, INFINITY);
        let walked = self.fold_within(s, buckets, bound, usize::MAX, scratch, |rank| {
            out.push((INFINITY, rank))
        });
        Self::drain(scratch, out);
        walked
    }

    /// Bucket kNN: the `k` targets nearest to `s` as `(dist, rank)`,
    /// ascending, ties at the cut going to the lower rank — element-wise
    /// what sorting every reachable target by `(dist, rank)` and truncating
    /// to `k` yields. Two passes: folding only the first `k` entries of each
    /// row gives upper bounds on at least `k` distinct targets whenever any
    /// row holds `k` (and exact distances on everything reachable
    /// otherwise — then the probe is the answer), so the `k`-th smallest of
    /// them bounds the true `k`-th distance; one
    /// [`scan_within`](Self::scan_within) at that bound then collects every
    /// candidate. `scratch` as for `scan_within`. Returns the entries
    /// scanned across both passes.
    pub fn knn(
        &self,
        s: NodeId,
        buckets: &LabelBuckets,
        k: usize,
        scratch: &mut Vec<Dist>,
        out: &mut Vec<(Dist, u32)>,
    ) -> u64 {
        out.clear();
        if k == 0 {
            return 0;
        }
        scratch.resize(buckets.num_targets, INFINITY);
        let mut walked = self.fold_within(s, buckets, INFINITY, k, scratch, |rank| {
            out.push((INFINITY, rank))
        });
        Self::drain(scratch, out);
        // Fewer than `k` hits means no row was cut short: the probe
        // already holds every reachable target, exactly.
        if out.len() >= k {
            let bound = out.select_nth_unstable(k - 1).1 .0;
            walked += self.scan_within(s, buckets, bound, scratch, out);
        }
        out.sort_unstable();
        out.truncate(k);
        walked
    }
}

/// The branch-light sorted merge of two labels behind
/// [`HubLabels::p2p_counted`]: each step compares the two current hubs,
/// folds their sum into `best` by a select when they are equal, and moves
/// each cursor by a comparison result — the same steps, and so the same
/// entry count, as a three-way branching merge.
#[inline]
fn merge<H: Cell, D: Cell>(sh: &[H], sd: &[D], th: &[H], td: &[D]) -> (Dist, u64) {
    let (sd, td) = (&sd[..sh.len()], &td[..th.len()]);
    let mut best = INFINITY;
    let (mut i, mut j) = (0usize, 0usize);
    while i < sh.len() && j < th.len() {
        let (x, y) = (sh[i], th[j]);
        let sum = dist_add(sd[i].get(), td[j].get());
        best = best.min(if x == y { sum } else { INFINITY });
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    (best, (i + j) as u64)
}

/// The one bucket loop of [`HubLabels::fold_within`], over the source
/// label's columns at their concrete widths.
fn fold_label<H: Cell, D: Cell>(
    hubs: &[H],
    dists: &[D],
    buckets: &LabelBuckets,
    bound: Dist,
    take: usize,
    best: &mut [Dist],
    mut first_touch: impl FnMut(u32),
) -> u64 {
    // A sum of exactly INFINITY is "unreachable", never a distance.
    let bound = bound.min(INFINITY - 1);
    let mut walked = hubs.len() as u64;
    for (&h, &dv) in hubs.iter().zip(dists) {
        let dv = dv.get();
        if dv > bound {
            continue;
        }
        let room = bound - dv;
        let row = buckets.row(NodeId(h.get()));
        for &(rank, dt) in &row[..row.len().min(take)] {
            if dt > room {
                break;
            }
            walked += 1;
            let slot = &mut best[rank as usize];
            if *slot == INFINITY {
                first_touch(rank);
            }
            *slot = (*slot).min(dv + dt);
        }
    }
    walked
}

/// One node's label as `(hub, dist)` pairs, hubs ascending: a view of
/// that label's slices of the columns, whatever their widths
/// ([`HubLabels::label_of`]).
#[derive(Clone, Debug)]
pub struct Label<'a> {
    hubs: Cells<'a>,
    dists: Cells<'a>,
}

impl<'a> Cells<'a> {
    #[inline]
    fn slice(self, range: Range<usize>) -> Cells<'a> {
        match self {
            Cells::Narrow(c) => Cells::Narrow(&c[range]),
            Cells::Wide(c) => Cells::Wide(&c[range]),
        }
    }

    #[inline]
    fn len(self) -> usize {
        match self {
            Cells::Narrow(c) => c.len(),
            Cells::Wide(c) => c.len(),
        }
    }

    /// Take the first value off the front.
    #[inline]
    fn pop_front(&mut self) -> Option<u32> {
        match self {
            Cells::Narrow(c) => c.split_first().map(|(&x, rest)| {
                *c = rest;
                x.into()
            }),
            Cells::Wide(c) => c.split_first().map(|(&x, rest)| {
                *c = rest;
                x
            }),
        }
    }
}

impl Iterator for Label<'_> {
    type Item = (NodeId, Dist);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, Dist)> {
        let h = self.hubs.pop_front()?;
        let d = self.dists.pop_front()?;
        Some((NodeId(h), d))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.hubs.len();
        (len, Some(len))
    }

    /// One width dispatch for the whole walk, not one per entry.
    #[inline]
    fn fold<B, F: FnMut(B, (NodeId, Dist)) -> B>(self, init: B, mut f: F) -> B {
        with_cells!(self.hubs, self.dists, |h, d| h
            .iter()
            .zip(d)
            .fold(init, |acc, (&h, &d)| f(acc, (NodeId(h.get()), d.get()))))
    }
}

impl ExactSizeIterator for Label<'_> {}

/// A target set's labels regrouped by hub: row `h` lists `(target rank,
/// d(target, h))` for every target whose label contains `h`, ascending by
/// `(dist, rank)`. Built once per target set ([`HubLabels::buckets`]),
/// scanned once per source ([`HubLabels::scan_within`] and its siblings).
#[derive(Clone, Debug)]
pub struct LabelBuckets {
    num_targets: usize,
    /// CSR over hubs: `entries[index[h]..index[h+1]]` is hub `h`'s row.
    index: Vec<u32>,
    entries: Vec<(u32, Dist)>,
}

impl LabelBuckets {
    /// Number of targets the buckets were built over.
    #[inline]
    pub fn num_targets(&self) -> usize {
        self.num_targets
    }

    /// Total label entries folded into the buckets.
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// In-memory footprint of the CSR arrays, bytes.
    pub fn bytes(&self) -> usize {
        self.index.len() * std::mem::size_of::<u32>()
            + self.entries.len() * std::mem::size_of::<(u32, Dist)>()
    }

    /// Hub `h`'s row: `(target rank, d(target, h))`, ascending by
    /// `(dist, rank)`.
    #[inline]
    pub fn row(&self, h: NodeId) -> &[(u32, Dist)] {
        &self.entries[self.index[h.index()] as usize..self.index[h.index() + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ChConfig;
    use crate::ChWorkspace;
    use dsi_graph::generate::{grid, random_planar, PlanarConfig};
    use dsi_graph::sssp;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn label_merge_matches_dijkstra_exhaustively_on_a_grid() {
        let g = grid(7, 7);
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        let hl = HubLabels::build(&ch);
        for s in g.nodes() {
            let tree = sssp(&g, s);
            for t in g.nodes() {
                assert_eq!(hl.p2p(s, t), tree.dist[t.index()], "p2p({s}, {t})");
            }
        }
    }

    #[test]
    fn a_label_view_holds_only_its_own_entries() {
        let g = grid(7, 7);
        let hl = HubLabels::build(&ContractionHierarchy::build(&g, &ChConfig::default()));
        for v in g.nodes() {
            let label = hl.label_of(v);
            let mut walk = label.clone();
            let by_next: Vec<_> = std::iter::from_fn(|| walk.next()).collect();
            let by_fold = label.clone().fold(Vec::new(), |mut acc, e| {
                acc.push(e);
                acc
            });
            assert_eq!(by_next, by_fold);
            assert_eq!(by_next.len(), label.len());
            assert!(by_next.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(by_next.contains(&(v, 0)));
            // At most five digits and ", " per value, two values an entry.
            let printed = format!("{label:?}");
            assert!(printed.len() <= 64 + 14 * label.len(), "{printed}");
        }
    }

    #[test]
    fn label_merge_matches_ch_on_a_random_planar_network() {
        let mut rng = StdRng::seed_from_u64(42);
        let net = random_planar(
            &PlanarConfig {
                num_nodes: 400,
                ..Default::default()
            },
            &mut rng,
        );
        let ch = ContractionHierarchy::build(&net, &ChConfig::default());
        let hl = HubLabels::build(&ch);
        let mut ws = ChWorkspace::new();
        for s in net.nodes().step_by(17) {
            for t in net.nodes().step_by(13) {
                assert_eq!(hl.p2p(s, t), ch.p2p(s, t, &mut ws));
            }
        }
    }

    #[test]
    fn pruned_landmark_build_matches_dijkstra_including_dense_cliques() {
        // The glue builder's regime: adjacency lists with clique blocks
        // (metric closures) whose degrees would overflow the road
        // network's slot width, plus a sparse bridge. Labels from
        // pruned Dijkstras must equal ground-truth Dijkstra distances
        // on every pair — including cross-clique and disconnected ones.
        let mut rng = StdRng::seed_from_u64(9);
        let net = random_planar(
            &PlanarConfig {
                num_nodes: 120,
                ..Default::default()
            },
            &mut rng,
        );
        let n = net.num_nodes();
        // Metric closure of the planar net on nodes 0..60 (one clique),
        // original sparse edges on the rest, one bridge.
        let mut adj: Vec<Vec<(NodeId, Dist)>> = vec![Vec::new(); n];
        let trees: Vec<_> = (0..60).map(|s| sssp(&net, NodeId(s as u32))).collect();
        for u in 0..60 {
            for v in 0..60 {
                let d = trees[u].dist[v];
                if u != v && d != INFINITY {
                    adj[u].push((NodeId(v as u32), d));
                }
            }
        }
        for (u, slot) in adj.iter_mut().enumerate().skip(60) {
            for (_, t, w) in net.neighbors(NodeId(u as u32)) {
                if t.index() >= 60 {
                    slot.push((t, w));
                }
            }
        }
        adj[10].push((NodeId(80), 5));
        adj[80].push((NodeId(10), 5));

        let mut order: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        order.sort_unstable_by_key(|&v| (Reverse(adj[v.index()].len()), v.0));
        let hl = HubLabels::build_pruned(&adj, &order);

        // Ground truth on the same adjacency.
        let dij = |s: usize| {
            let mut dist = vec![INFINITY; n];
            let mut heap = std::collections::BinaryHeap::new();
            dist[s] = 0;
            heap.push(Reverse((0u32, s)));
            while let Some(Reverse((d, u))) = heap.pop() {
                if d > dist[u] {
                    continue;
                }
                for &(v, w) in &adj[u] {
                    let nd = dist_add(d, w);
                    if nd < dist[v.index()] {
                        dist[v.index()] = nd;
                        heap.push(Reverse((nd, v.index())));
                    }
                }
            }
            dist
        };
        for s in (0..n).step_by(7) {
            let want = dij(s);
            for (t, &want_d) in want.iter().enumerate() {
                assert_eq!(
                    hl.p2p(NodeId(s as u32), NodeId(t as u32)),
                    want_d,
                    "pruned labels p2p({s}, {t})"
                );
            }
        }
    }

    #[test]
    fn a_path_past_65536_nodes_takes_the_wide_hub_column() {
        // A path of 65,600 nodes, hubs in bisection order (every segment's
        // midpoint before its halves'): O(log n) entries a label, hub ids
        // past u16. With unit weights every label distance stays under
        // 32,800 (narrow distances); with weight 2 some exceed 65,535.
        let n = 65_600usize;
        let mut order = Vec::with_capacity(n);
        let mut segments = std::collections::VecDeque::from([(0usize, n)]);
        while let Some((lo, hi)) = segments.pop_front() {
            if lo < hi {
                let mid = lo + (hi - lo) / 2;
                order.push(NodeId(mid as u32));
                segments.extend([(lo, mid), (mid + 1, hi)]);
            }
        }
        for (w, dist_bytes) in [(1, 2), (2, 4)] {
            let adj: Vec<Vec<(NodeId, Dist)>> = (0..n)
                .map(|i| {
                    let sides = [i.checked_sub(1), Some(i + 1).filter(|&j| j < n)];
                    sides
                        .into_iter()
                        .flatten()
                        .map(|j| (NodeId(j as u32), w))
                        .collect()
                })
                .collect();
            let hl = HubLabels::build_pruned(&adj, &order);
            assert!(hl.avg_label_len() <= 18.0, "{} entries", hl.avg_label_len());
            assert_eq!(
                hl.label_bytes(),
                4 * (n + 1) + (4 + dist_bytes) * hl.num_entries(),
                "weight {w}"
            );
            let mut rng = StdRng::seed_from_u64(65_600);
            for _ in 0..2_000 {
                let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let want = i.abs_diff(j) as Dist * w;
                assert_eq!(
                    hl.p2p(NodeId(i as u32), NodeId(j as u32)),
                    want,
                    "({i}, {j})"
                );
            }
            assert_eq!(hl.p2p(NodeId(0), NodeId(n as u32 - 1)), (n as Dist - 1) * w);
        }
    }

    #[test]
    fn repairs_cross_column_widths() {
        // Node 0 of a grid hangs on two edges. Weighting both past 65,535
        // pushes its label distances into a u32 column; weighting them back
        // narrows it again. Each repair copies the kept labels across the
        // width change and must equal a fresh build.
        let g = grid(6, 6);
        let n = g.num_nodes();
        let mut net = g.clone();
        let mut ch = ContractionHierarchy::build(&net, &ChConfig::default());
        let mut hl = HubLabels::build(&ch);
        let edges: Vec<NodeId> = net.neighbors(NodeId(0)).map(|(_, v, _)| v).collect();
        for (w, dist_bytes) in [(100_000, 4), (1, 2), (70_000, 4)] {
            let log: Vec<_> = edges
                .iter()
                .map(|&v| (NodeId(0), v, net.set_edge_weight(NodeId(0), v, w)))
                .collect();
            let (new_ch, _) = ch.repaired(&net, &log);
            let (new_hl, _) = hl.repaired(&ch, &new_ch);
            assert_eq!(new_hl, HubLabels::build(&new_ch), "weight {w}");
            assert_eq!(
                new_hl.label_bytes(),
                4 * (n + 1) + (2 + dist_bytes) * new_hl.num_entries(),
                "weight {w}"
            );
            let tree = sssp(&net, NodeId(0));
            for t in net.nodes() {
                assert_eq!(new_hl.p2p(NodeId(0), t), tree.dist[t.index()]);
            }
            (ch, hl) = (new_ch, new_hl);
        }
    }

    #[test]
    fn disconnected_pairs_share_no_hub() {
        let mut b = dsi_graph::NetworkBuilder::new();
        let p = dsi_graph::Point::new(0.0, 0.0);
        let ids: Vec<NodeId> = (0..6).map(|_| b.add_node(p)).collect();
        b.add_edge(ids[0], ids[1], 3);
        b.add_edge(ids[1], ids[2], 4);
        b.add_edge(ids[3], ids[4], 1);
        b.add_edge(ids[4], ids[5], 2);
        let net = b.build();
        let ch = ContractionHierarchy::build(&net, &ChConfig::default());
        let hl = HubLabels::build(&ch);
        assert_eq!(hl.p2p(ids[0], ids[2]), 7);
        assert_eq!(hl.p2p(ids[0], ids[4]), INFINITY);
        assert_eq!(hl.p2p(ids[5], ids[1]), INFINITY);
    }

    #[test]
    fn labels_are_canonical() {
        // No entry is prunable by another hub: for every `(h, d)` in
        // `L(v)`, the best two-hop route through any *other* shared hub of
        // `L(v)` and `L(h)` is strictly longer than `d`.
        let g = grid(8, 8);
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        let hl = HubLabels::build(&ch);
        for v in g.nodes() {
            for (h, d) in hl.label_of(v) {
                if h == v {
                    assert_eq!(d, 0, "self entry of {v}");
                    continue;
                }
                let of_h: Vec<_> = hl.label_of(h).collect();
                let mut alt = INFINITY;
                for (x, dx) in hl.label_of(v).filter(|&(x, _)| x != h) {
                    if let Ok(i) = of_h.binary_search_by_key(&x, |&(y, _)| y) {
                        alt = alt.min(dist_add(dx, of_h[i].1));
                    }
                }
                assert!(alt > d, "entry ({h}, {d}) of {v} prunable via {alt}");
            }
        }
    }

    #[test]
    fn hubs_are_sorted_and_labels_small() {
        let mut rng = StdRng::seed_from_u64(7);
        let net = random_planar(
            &PlanarConfig {
                num_nodes: 2000,
                ..Default::default()
            },
            &mut rng,
        );
        let ch = ContractionHierarchy::build(&net, &ChConfig::default());
        let hl = HubLabels::build(&ch);
        for v in net.nodes() {
            let hs: Vec<NodeId> = hl.label_of(v).map(|(h, _)| h).collect();
            assert!(hs.windows(2).all(|w| w[0] < w[1]), "hubs of {v} unsorted");
            assert!(hs.binary_search(&v).is_ok(), "{v} missing its self entry");
        }
        // The point of labels: entries per node stay tiny relative to n.
        assert!(
            hl.avg_label_len() * 16.0 < net.num_nodes() as f64,
            "avg label {} entries on {} nodes",
            hl.avg_label_len(),
            net.num_nodes()
        );
    }

    #[test]
    fn one_to_many_matches_pairwise_merges() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = random_planar(
            &PlanarConfig {
                num_nodes: 300,
                ..Default::default()
            },
            &mut rng,
        );
        let ch = ContractionHierarchy::build(&net, &ChConfig::default());
        let hl = HubLabels::build(&ch);
        let targets: Vec<NodeId> = net.nodes().step_by(7).collect();
        let buckets = hl.buckets(&targets);
        assert_eq!(buckets.num_targets(), targets.len());
        let mut out = Vec::new();
        for s in net.nodes().step_by(11) {
            let scanned = hl.one_to_many(s, &buckets, &mut out);
            assert!(scanned > 0);
            for (rank, &t) in targets.iter().enumerate() {
                assert_eq!(out[rank], hl.p2p(s, t), "one-to-many({s}, {t})");
            }
        }
    }

    #[test]
    fn build_is_deterministic() {
        let g = grid(9, 9);
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        assert_eq!(HubLabels::build(&ch), HubLabels::build(&ch));
    }

    #[test]
    fn empty_hierarchy_builds_empty_labels() {
        let net = dsi_graph::NetworkBuilder::new().build();
        let ch = ContractionHierarchy::build(&net, &ChConfig::default());
        let hl = HubLabels::build(&ch);
        assert_eq!(hl.num_nodes(), 0);
        assert_eq!(hl.num_entries(), 0);
    }
}
