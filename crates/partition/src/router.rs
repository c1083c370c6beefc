//! Cross-partition query routing: region-local operators + hub-label glue
//! over the boundary overlay.
//!
//! Every query runs the *local* region's signature operator first (range
//! candidates, exact retrievals — all charged to the caller's session, IO
//! accounting included), then resolves the **boundary labels**: the exact
//! region-local distances to the region's boundary pseudo-objects seed a
//! virtual source whose distance to every boundary node `b` of every
//! region is answered by the overlay's hub labels (see `index.rs`) — the
//! seeds' labels fold into one hub→distance map, then one pass over each
//! boundary node's label reads off the exact full-graph distance
//! `d_G(q, b)`. No overlay traversal runs at query time. Remote (and
//! locally-detouring) object distances then close via the precomputed glue
//! rows:
//! `d_G(q, o) = min(d_local, min_{b' ∈ ∂region(o)} label(b') + row(b', o))`.
//!
//! Each label folded or read is one **label lookup** and every `(hub,
//! dist)` entry it advances over is counted, in
//! [`OpStats::label_lookups`](dsi_signature::OpStats) /
//! [`OpStats::label_entries_scanned`](dsi_signature::OpStats) on the
//! session.
//!
//! Bounded queries (range, aggregate) only seed the virtual source with
//! boundary pseudo-objects the local range operator certified within `ε` —
//! any qualifying remote path must leave through one of those — and prune
//! whole regions whose nearest boundary label exceeds `ε`.

use crate::index::PartitionedIndex;
use dsi_graph::{Dist, NodeId, ObjectId, INFINITY};
use dsi_signature::query::aggregate::RangeAggregate;
use dsi_signature::{merge_segments, CnnSegment, KnnResult, OpResult, Session, SessionState};

impl PartitionedIndex {
    /// Attach a parked state to region `p`'s index as a live session. The
    /// state must come from this region's lineage (fresh, or previously
    /// suspended from the same region).
    pub fn resume(&self, p: usize, state: SessionState) -> Session<'_> {
        let r = &self.parts[p];
        Session::resume(&r.index, &r.net, state)
    }

    /// Objects with `d_G(q, o) ≤ eps`, ascending object id — element-wise
    /// equal to the single-index range answer. `sess` must be a session on
    /// `part = part_of(q)`.
    pub fn try_range(
        &self,
        sess: &mut Session<'_>,
        part: usize,
        q: NodeId,
        eps: Dist,
    ) -> OpResult<Vec<ObjectId>> {
        let within = self.within_local(sess, part, self.local_node(q), eps)?;
        Ok(within.into_iter().map(|(o, _)| o).collect())
    }

    /// Count/sum/min/max over the exact distances of qualifying objects.
    pub fn try_aggregate(
        &self,
        sess: &mut Session<'_>,
        part: usize,
        q: NodeId,
        eps: Dist,
    ) -> OpResult<RangeAggregate> {
        let within = self.within_local(sess, part, self.local_node(q), eps)?;
        Ok(within.into_iter().map(|(_, d)| d).collect())
    }

    /// The k nearest objects by `(distance, object id)` with exact
    /// distances.
    pub fn try_knn(
        &self,
        sess: &mut Session<'_>,
        part: usize,
        q: NodeId,
        k: usize,
    ) -> OpResult<Vec<KnnResult>> {
        let dists = self.all_dists_bounded(sess, part, q, k)?;
        let mut pairs: Vec<(Dist, ObjectId)> = dists
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != INFINITY)
            .map(|(o, &d)| (d, ObjectId(o as u32)))
            .collect();
        pairs.sort_unstable();
        pairs.truncate(k.min(pairs.len()));
        Ok(pairs
            .into_iter()
            .map(|(d, o)| KnnResult {
                object: o,
                dist: Some(d),
            })
            .collect())
    }

    /// The id-sorted k-nearest *set* at `q` (ties at the cut broken by
    /// object id) — one path node's CNN answer.
    pub fn try_cnn_set(
        &self,
        sess: &mut Session<'_>,
        part: usize,
        q: NodeId,
        k: usize,
    ) -> OpResult<Vec<ObjectId>> {
        let knn = self.try_knn(sess, part, q, k)?;
        let mut set: Vec<ObjectId> = knn.into_iter().map(|r| r.object).collect();
        set.sort_unstable();
        Ok(set)
    }

    /// This region's contribution to a self ε-join: every pair `(a, b)`
    /// with `a` hosted here, `a < b`, and `d_G(host a, host b) ≤ eps`. A
    /// cross-region pair is emitted only by the region hosting the smaller
    /// object id, so concatenating all regions' rows yields each pair once.
    pub fn try_join_rows(
        &self,
        sess: &mut Session<'_>,
        part: usize,
        eps: Dist,
    ) -> OpResult<Vec<(ObjectId, ObjectId)>> {
        let r = &self.parts[part];
        let mut pairs = Vec::new();
        for &(lo, ga) in &r.real_objs {
            let host = r.objects.node_of(lo);
            for (gb, _) in self.within_local(sess, part, host, eps)? {
                if gb > ga {
                    pairs.push((ga, gb));
                }
            }
        }
        Ok(pairs)
    }

    /// Exact `d_G(q, o)` for every global object, indexed by object id, as
    /// far as a kNN caller needs them. `q` is a global node; `sess` must
    /// belong to `part = part_of(q)`. With `k > 0`, the k-th smallest
    /// *local* candidate distance caps the boundary expansion. Remote
    /// contributions only ever lower a distance, so the final k-th answer
    /// is ≤ that cap; any path through a boundary label past it can neither
    /// reach the top k nor change a value that does. Entries past the cap
    /// may then stay at their unimproved local value (or `INFINITY`) —
    /// exactly the entries a k-truncation discards.
    fn all_dists_bounded(
        &self,
        sess: &mut Session<'_>,
        part: usize,
        q: NodeId,
        k: usize,
    ) -> OpResult<Vec<Dist>> {
        debug_assert_eq!(self.part_of(q), part);
        let ql = self.local_node(q);
        let r = &self.parts[part];
        let mut dists = vec![INFINITY; self.num_objects];
        for &(lo, go) in &r.real_objs {
            dists[go.index()] = sess.try_retrieve_exact(ql, lo)?;
        }
        let bound = if k > 0 {
            let mut local: Vec<Dist> = r
                .real_objs
                .iter()
                .map(|&(_, go)| dists[go.index()])
                .filter(|&d| d != INFINITY)
                .collect();
            if local.len() >= k {
                *local.select_nth_unstable(k - 1).1
            } else {
                INFINITY
            }
        } else {
            INFINITY
        };
        let mut init = Vec::with_capacity(r.boundary_objs.len());
        for &(lo, b) in &r.boundary_objs {
            init.push((b, sess.try_retrieve_exact(ql, lo)?));
        }
        let labels = self.expand_frontier(sess, &init, bound);
        self.apply_remote(&labels, bound, &mut dists);
        Ok(dists)
    }

    /// Exact `(object, d_G)` pairs with `d_G ≤ eps`, ascending object id,
    /// from a region-local query node.
    fn within_local(
        &self,
        sess: &mut Session<'_>,
        part: usize,
        ql: NodeId,
        eps: Dist,
    ) -> OpResult<Vec<(ObjectId, Dist)>> {
        let r = &self.parts[part];
        let cand = sess.try_range(ql, eps)?;
        let mut dists = vec![INFINITY; self.num_objects];
        let mut init = Vec::new();
        for lo in cand {
            // One exact retrieval serves both roles of a host that is real
            // and boundary at once.
            let d = sess.try_retrieve_exact(ql, lo)?;
            if let Ok(i) = r.real_objs.binary_search_by_key(&lo, |&(l, _)| l) {
                dists[r.real_objs[i].1.index()] = d;
            }
            if let Ok(i) = r.boundary_objs.binary_search_by_key(&lo, |&(l, _)| l) {
                init.push((r.boundary_objs[i].1, d));
            }
        }
        let labels = self.expand_frontier(sess, &init, eps);
        self.apply_remote(&labels, eps, &mut dists);
        Ok(dists
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d <= eps)
            .map(|(o, &d)| (ObjectId(o as u32), d))
            .collect())
    }

    /// Multi-source boundary distances by hub-label merges: `init` holds
    /// `(global boundary index, exact region-local distance)` seeds; the
    /// returned labels are exact `d_G(q, b)` for every boundary node whose
    /// distance is ≤ `bound` (INFINITY otherwise). The seeds' labels fold
    /// into one hub→distance map for the virtual source; the hubs that map
    /// touches are then read back through the *inverted* labels
    /// ([`GlueBuckets`](crate::index)), so only buckets of reached hubs are
    /// scanned — and each bucket's distance-ascending rows stop at the
    /// first entry past `bound`. Each label folded or bucket opened is one
    /// label lookup on the session, each `(hub, dist)` / `(boundary,
    /// dist)` entry advanced over one scanned entry.
    fn expand_frontier(
        &self,
        sess: &mut Session<'_>,
        init: &[(u32, Dist)],
        bound: Dist,
    ) -> Vec<Dist> {
        let nb = self.all_boundary.len();
        let mut labels = vec![INFINITY; nb];
        let mut hub_min = vec![INFINITY; nb];
        let mut seeded: Vec<u32> = Vec::new();
        let mut lookups = 0u64;
        let mut scanned = 0u64;
        for &(b, d0) in init {
            if d0 > bound {
                continue;
            }
            let label = self.glue.label_of(NodeId(b));
            lookups += 1;
            scanned += label.len() as u64;
            for (h, dh) in label {
                let d = d0.saturating_add(dh);
                if d < hub_min[h.index()] {
                    if hub_min[h.index()] == INFINITY {
                        seeded.push(h.0);
                    }
                    hub_min[h.index()] = d;
                }
            }
        }
        // Two equivalent read-backs. Narrow expansions (kNN capped by the
        // k-th local candidate, small ε) reach few hubs: scan just those
        // hubs' buckets, each stopping at the first distance-ascending row
        // past `bound`. Wide expansions reach most hubs, and the bucket
        // walk's scattered `labels` writes lose to one cache-friendly
        // sequential pass over every boundary node's label — switch over
        // when the seeded buckets cover most rows anyway.
        let in_buckets: usize = seeded
            .iter()
            .map(|&h| self.glue_buckets.len_of(h as usize))
            .sum();
        if in_buckets * 2 < self.glue_buckets.total_rows() {
            for &h in &seeded {
                let m = hub_min[h as usize];
                lookups += 1;
                for &(b, d) in self.glue_buckets.rows_of(h as usize) {
                    scanned += 1;
                    let t = m.saturating_add(d);
                    if t > bound {
                        break; // rows ascend by dist: nothing further fits
                    }
                    if t < labels[b as usize] {
                        labels[b as usize] = t;
                    }
                }
            }
        } else if !seeded.is_empty() {
            for (bi, slot) in labels.iter_mut().enumerate() {
                let label = self.glue.label_of(NodeId(bi as u32));
                lookups += 1;
                scanned += label.len() as u64;
                let best = label.fold(INFINITY, |best, (h, dh)| {
                    let m = hub_min[h.index()];
                    if m < best {
                        best.min(m.saturating_add(dh))
                    } else {
                        best
                    }
                });
                if best <= bound {
                    *slot = best;
                }
            }
        }
        sess.stats.label_lookups += lookups;
        sess.stats.label_entries_scanned += scanned;
        labels
    }

    /// Close every object's distance through the glue rows:
    /// `dists[o] = min(dists[o], min_{b' ∈ ∂region(o)} label(b') + row(b', o))`.
    /// Regions whose nearest boundary label exceeds `bound` cannot improve
    /// any in-bound answer and are skipped whole.
    fn apply_remote(&self, labels: &[Dist], bound: Dist, dists: &mut [Dist]) {
        for p2 in 0..self.parts.len() {
            let (b0, b1) = (self.boundary_base[p2], self.boundary_base[p2 + 1]);
            let lmin = labels[b0..b1].iter().copied().min().unwrap_or(INFINITY);
            if lmin == INFINITY || lmin > bound {
                continue;
            }
            let rows = &self.obj_rows[p2];
            for (rk, &(_, go)) in self.parts[p2].real_objs.iter().enumerate() {
                let mut best = dists[go.index()];
                for (bi, row) in rows.iter().enumerate() {
                    let l = labels[b0 + bi];
                    if l >= best {
                        continue;
                    }
                    let t = l.saturating_add(row[rk]);
                    if t < best {
                        best = t;
                    }
                }
                dists[go.index()] = best;
            }
        }
    }
}

/// A serial session pool over a [`PartitionedIndex`]: one detachable
/// [`SessionState`] per region, resumed on demand. This is the standalone
/// (single-threaded) face of the shard router — tests, benches and tools
/// use it directly; `dsi-service` wires the same per-region operators into
/// its lock-striped shards instead.
pub struct ShardedSessions<'a> {
    pidx: &'a PartitionedIndex,
    states: Vec<Option<SessionState>>,
}

impl<'a> ShardedSessions<'a> {
    /// One fresh state per region with `pool_pages` buffer pages each.
    pub fn new(pidx: &'a PartitionedIndex, pool_pages: usize) -> Self {
        let states = (0..pidx.num_parts())
            .map(|_| Some(SessionState::new(pool_pages)))
            .collect();
        ShardedSessions { pidx, states }
    }

    fn on_part<T>(
        &mut self,
        p: usize,
        f: impl FnOnce(&PartitionedIndex, &mut Session<'_>) -> OpResult<T>,
    ) -> T {
        let pidx = self.pidx;
        let state = self.states[p].take().expect("state parked");
        let mut sess = pidx.resume(p, state);
        let out = f(pidx, &mut sess);
        self.states[p] = Some(sess.suspend());
        out.expect("storage fault on a session without a fault plan")
    }

    /// Range query from a global node.
    pub fn range(&mut self, q: NodeId, eps: Dist) -> Vec<ObjectId> {
        let p = self.pidx.part_of(q);
        self.on_part(p, |pidx, sess| pidx.try_range(sess, p, q, eps))
    }

    /// kNN query from a global node.
    pub fn knn(&mut self, q: NodeId, k: usize) -> Vec<KnnResult> {
        let p = self.pidx.part_of(q);
        self.on_part(p, |pidx, sess| pidx.try_knn(sess, p, q, k))
    }

    /// Range aggregate from a global node.
    pub fn aggregate(&mut self, q: NodeId, eps: Dist) -> RangeAggregate {
        let p = self.pidx.part_of(q);
        self.on_part(p, |pidx, sess| pidx.try_aggregate(sess, p, q, eps))
    }

    /// Self ε-join over all regions, pairs `(a, b)` with `a < b`, sorted.
    pub fn join(&mut self, eps: Dist) -> Vec<(ObjectId, ObjectId)> {
        let mut pairs = Vec::new();
        for p in 0..self.pidx.num_parts() {
            pairs.extend(self.on_part(p, |pidx, sess| pidx.try_join_rows(sess, p, eps)));
        }
        pairs.sort_unstable();
        pairs
    }

    /// Continuous kNN along a (global) path: per-node k-nearest sets
    /// computed through each node's own region session, merged into
    /// maximal equal-answer segments.
    pub fn continuous_knn(&mut self, path: &[NodeId], k: usize) -> Vec<CnnSegment> {
        let sets: Vec<Vec<ObjectId>> = path
            .iter()
            .map(|&q| {
                let p = self.pidx.part_of(q);
                self.on_part(p, |pidx, sess| pidx.try_cnn_set(sess, p, q, k))
            })
            .collect();
        merge_segments(sets.into_iter())
    }

    /// Merged IO counters across all region sessions.
    pub fn io_stats(&self) -> dsi_storage::IoStats {
        self.states
            .iter()
            .map(|s| s.as_ref().expect("state parked").io_stats())
            .sum()
    }

    /// Merged operation counters across all region sessions.
    pub fn op_stats(&self) -> dsi_signature::OpStats {
        self.states
            .iter()
            .map(|s| s.as_ref().expect("state parked").op_stats())
            .sum()
    }
}
