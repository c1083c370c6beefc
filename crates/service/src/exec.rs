//! One operator set over exact object distances.
//!
//! The paper's range, kNN, aggregation and ε-join (§4) are one idea:
//! compare exact network distances to objects. [`ObjectDistances`] is the
//! interface that idea needs — the objects within ε of a node, the k
//! nearest, and one object's share of a self-join — and [`execute`] writes
//! each query class once over it. The two in-memory oracles — network
//! expansion ([`Dijkstra`]) and the hub labels ([`Labels`]) — implement it
//! with their own algorithms and answer element-wise identically: ranges in id order, kNN keeps the `k`
//! smallest `(distance, object)` pairs, joins list `a < b` pairs in order,
//! and unreachable objects never qualify.

use dsi_graph::{
    DijkstraExpansion, Dist, NodeId, ObjectId, ObjectSet, RoadNetwork, SsspWorkspace, INFINITY,
};
use dsi_hierarchy::{HubLabels, LabelBuckets};
use dsi_signature::KnnResult;

use crate::engine::QueryOutput;
use crate::workload::Query;

/// Exact distances from a node to the objects, as the four query classes
/// consume them.
pub(crate) trait ObjectDistances {
    /// Every object within `eps` of `node` with its exact distance,
    /// id-ascending. Unreachable objects never qualify, whatever `eps`.
    fn within(&mut self, node: NodeId, eps: Dist) -> Vec<(ObjectId, Dist)>;

    /// The `k` objects nearest to `node` as `(distance, object)`,
    /// ascending, ties at the cut going to the lower id.
    fn knn(&mut self, node: NodeId, k: usize) -> Vec<(Dist, ObjectId)> {
        let mut found: Vec<_> = self
            .within(node, INFINITY)
            .into_iter()
            .map(|(o, d)| (d, o))
            .collect();
        found.sort_unstable();
        found.truncate(k);
        found
    }

    /// Object `a`'s share of a self ε-join: push `(a, b)` for every partner
    /// `b > a` within `eps`, in any order.
    fn join_row(&mut self, a: ObjectId, eps: Dist, pairs: &mut Vec<(ObjectId, ObjectId)>);
}

/// Answer one query over `oracle`, whose object set is `objects`.
pub(crate) fn execute(
    oracle: &mut impl ObjectDistances,
    objects: &ObjectSet,
    q: &Query,
) -> QueryOutput {
    match *q {
        Query::Range { node, eps } => {
            let within = oracle.within(node, eps);
            QueryOutput::Range(within.into_iter().map(|(o, _)| o).collect())
        }
        Query::Knn { node, k } => QueryOutput::Knn(
            oracle
                .knn(node, k)
                .into_iter()
                .map(|(d, object)| KnnResult {
                    object,
                    dist: Some(d),
                })
                .collect(),
        ),
        Query::Aggregate { node, eps } => {
            let within = oracle.within(node, eps);
            QueryOutput::Aggregate(within.into_iter().map(|(_, d)| d).collect())
        }
        Query::Join { eps } => {
            let mut pairs = Vec::new();
            for a in objects.objects() {
                oracle.join_row(a, eps, &mut pairs);
            }
            pairs.sort_unstable();
            QueryOutput::Join(pairs)
        }
    }
}

/// One worker's reusable query state, one of each kind: allocated once per
/// worker, reset in O(touched) between queries.
#[derive(Default)]
pub(crate) struct Scratch {
    pub(crate) sssp: SsspWorkspace,
    /// Dense per-object fold buffer and hit list of the label scans.
    dense: Vec<Dist>,
    hits: Vec<(Dist, u32)>,
}

impl Scratch {
    /// Label merges and scans of `buckets` — the labels of `objects`' hosts
    /// in id order — in this worker's fold buffers, with zeroed counters.
    pub(crate) fn labels<'a>(
        &'a mut self,
        hl: &'a HubLabels,
        buckets: &'a LabelBuckets,
        objects: &'a ObjectSet,
    ) -> Labels<'a> {
        Labels {
            hl,
            buckets,
            objects,
            dense: &mut self.dense,
            hits: &mut self.hits,
            lookups: 0,
            scanned: 0,
        }
    }
}

/// Incremental network expansion from the query node (the paper's INE
/// baseline): ranges stop at ε, kNN at the k-th distance.
pub(crate) struct Dijkstra<'a> {
    pub(crate) net: &'a RoadNetwork,
    pub(crate) objects: &'a ObjectSet,
    pub(crate) ws: &'a mut SsspWorkspace,
}

impl ObjectDistances for Dijkstra<'_> {
    fn within(&mut self, node: NodeId, eps: Dist) -> Vec<(ObjectId, Dist)> {
        let mut exp = DijkstraExpansion::in_workspace(self.net, node, self.ws);
        let mut found = Vec::new();
        while let Some((v, d)) = exp.next_settled() {
            if d > eps {
                break;
            }
            if let Some(o) = self.objects.object_at(v) {
                found.push((o, d));
            }
        }
        found.sort_unstable();
        found
    }

    /// Settles outward until `k` objects are found, then to the end of the
    /// k-th distance to pick up the ties the cut chooses among.
    fn knn(&mut self, node: NodeId, k: usize) -> Vec<(Dist, ObjectId)> {
        let k = k.min(self.objects.len());
        let mut exp = DijkstraExpansion::in_workspace(self.net, node, self.ws);
        let mut found = Vec::new();
        let mut bound = None;
        while let Some((v, d)) = exp.next_settled() {
            if bound.is_some_and(|b| d > b) {
                break;
            }
            if let Some(o) = self.objects.object_at(v) {
                found.push((d, o));
                if found.len() == k {
                    bound = Some(d);
                }
            }
        }
        found.sort_unstable();
        found.truncate(k);
        found
    }

    fn join_row(&mut self, a: ObjectId, eps: Dist, pairs: &mut Vec<(ObjectId, ObjectId)>) {
        let host = self.objects.node_of(a);
        let row = self.within(host, eps);
        pairs.extend(row.into_iter().filter(|&(b, _)| b > a).map(|(b, _)| (a, b)));
    }
}

/// The hub-label oracle over the object buckets: kNN and join rows are
/// bounded bucket scans ([`HubLabels::knn`], [`HubLabels::scan_within`]);
/// range and aggregate still merge the query node's label against every
/// object's. It counts its work: one lookup per bucket scan or merge, plus
/// the label and bucket entries they walked.
pub(crate) struct Labels<'a> {
    hl: &'a HubLabels,
    buckets: &'a LabelBuckets,
    objects: &'a ObjectSet,
    dense: &'a mut Vec<Dist>,
    hits: &'a mut Vec<(Dist, u32)>,
    pub(crate) lookups: u64,
    pub(crate) scanned: u64,
}

impl ObjectDistances for Labels<'_> {
    /// One label merge per object.
    fn within(&mut self, node: NodeId, eps: Dist) -> Vec<(ObjectId, Dist)> {
        self.lookups += self.objects.len() as u64;
        self.objects
            .iter()
            .filter_map(|(o, host)| {
                let (d, entries) = self.hl.p2p_counted(node, host);
                self.scanned += entries;
                (d != INFINITY && d <= eps).then_some((o, d))
            })
            .collect()
    }

    /// One bounded scan at the bucket-head estimate of the k-th distance.
    fn knn(&mut self, node: NodeId, k: usize) -> Vec<(Dist, ObjectId)> {
        self.lookups += 1;
        self.scanned += self.hl.knn(node, self.buckets, k, self.dense, self.hits);
        self.hits.iter().map(|&(d, o)| (d, ObjectId(o))).collect()
    }

    /// One ε-bounded scan from `a`'s host.
    fn join_row(&mut self, a: ObjectId, eps: Dist, pairs: &mut Vec<(ObjectId, ObjectId)>) {
        self.lookups += 1;
        let host = self.objects.node_of(a);
        self.scanned += self
            .hl
            .scan_within(host, self.buckets, eps, self.dense, self.hits);
        pairs.extend(
            self.hits
                .iter()
                .filter(|&&(_, b)| b > a.0)
                .map(|&(_, b)| (a, ObjectId(b))),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_graph::{sssp, NetworkBuilder, Point};
    use dsi_hierarchy::{ChConfig, ContractionHierarchy};

    /// Two components: a 6×5 grid with weights cycling 1..=3 (ties at every
    /// radius) and a separate 8-node cycle, with objects in both.
    fn two_components() -> (RoadNetwork, ObjectSet) {
        let mut b = NetworkBuilder::new();
        let (w, h) = (6u32, 5u32);
        let grid: Vec<NodeId> = (0..w * h)
            .map(|i| {
                b.add_node(Point {
                    x: f64::from(i % w),
                    y: f64::from(i / w),
                })
            })
            .collect();
        for i in 0..w * h {
            let weight = 1 + i % 3;
            if i % w + 1 < w {
                b.add_edge(grid[i as usize], grid[i as usize + 1], weight);
            }
            if i + w < w * h {
                b.add_edge(grid[i as usize], grid[(i + w) as usize], 4 - weight);
            }
        }
        let ring: Vec<NodeId> = (0..8)
            .map(|i| {
                b.add_node(Point {
                    x: 100.0 + f64::from(i),
                    y: 0.0,
                })
            })
            .collect();
        for i in 0..ring.len() {
            b.add_edge(ring[i], ring[(i + 1) % ring.len()], 2);
        }
        let net = b.build();
        let hosts = [0, 4, 7, 13, 17, 22, 29, 31, 33, 36]
            .into_iter()
            .map(NodeId)
            .collect();
        let objects = ObjectSet::from_nodes(&net, hosts);
        (net, objects)
    }

    /// Brute force: one full `sssp` per needed source.
    fn reference(net: &RoadNetwork, objects: &ObjectSet, q: &Query) -> QueryOutput {
        let reachable = |node: NodeId| {
            let tree = sssp(net, node);
            objects
                .iter()
                .map(move |(o, host)| (o, tree.dist[host.index()]))
                .filter(|&(_, d)| d != INFINITY)
        };
        match *q {
            Query::Range { node, eps } => QueryOutput::Range(
                reachable(node)
                    .filter(|&(_, d)| d <= eps)
                    .map(|(o, _)| o)
                    .collect(),
            ),
            Query::Knn { node, k } => {
                let mut all: Vec<_> = reachable(node).map(|(o, d)| (d, o)).collect();
                all.sort_unstable();
                all.truncate(k);
                QueryOutput::Knn(
                    all.into_iter()
                        .map(|(d, object)| KnnResult {
                            object,
                            dist: Some(d),
                        })
                        .collect(),
                )
            }
            Query::Aggregate { node, eps } => QueryOutput::Aggregate(
                reachable(node)
                    .filter(|&(_, d)| d <= eps)
                    .map(|(_, d)| d)
                    .collect(),
            ),
            Query::Join { eps } => QueryOutput::Join(
                objects
                    .iter()
                    .flat_map(|(a, host)| {
                        reachable(host)
                            .filter(move |&(b, d)| b > a && d <= eps)
                            .map(move |(b, _)| (a, b))
                    })
                    .collect(),
            ),
        }
    }

    fn batch(net: &RoadNetwork, objects: &ObjectSet) -> Vec<Query> {
        let epsilons = [0, 5, INFINITY];
        let ks = [0, 1, objects.len(), objects.len() + 3];
        let mut batch: Vec<Query> = epsilons.iter().map(|&eps| Query::Join { eps }).collect();
        for node in net.nodes() {
            for &eps in &epsilons {
                batch.push(Query::Range { node, eps });
                batch.push(Query::Aggregate { node, eps });
            }
            for &k in &ks {
                batch.push(Query::Knn { node, k });
            }
        }
        batch
    }

    #[test]
    fn every_oracle_answers_like_brute_force_across_components() {
        let (net, objects) = two_components();
        let ch = ContractionHierarchy::build(&net, &ChConfig::default());
        let hl = HubLabels::build(&ch);
        let buckets = hl.buckets(objects.host_nodes());
        let mut sc = Scratch::default();
        for q in &batch(&net, &objects) {
            let want = reference(&net, &objects, q);
            let mut ine = Dijkstra {
                net: &net,
                objects: &objects,
                ws: &mut sc.sssp,
            };
            assert_eq!(execute(&mut ine, &objects, q), want, "dijkstra, {q:?}");
            let hlq = execute(&mut sc.labels(&hl, &buckets, &objects), &objects, q);
            assert_eq!(hlq, want, "labels, {q:?}");
        }

        // The ring's objects are never within reach of the grid, nor the
        // grid's of the ring, however large the radius.
        let in_ring = |o: ObjectId| objects.node_of(o).index() >= 30;
        let QueryOutput::Range(from_grid) = execute(
            &mut sc.labels(&hl, &buckets, &objects),
            &objects,
            &Query::Range {
                node: NodeId(0),
                eps: INFINITY,
            },
        ) else {
            unreachable!("a range query answers a range")
        };
        assert!(!from_grid.is_empty() && !from_grid.iter().any(|&o| in_ring(o)));
        let mut ine = Dijkstra {
            net: &net,
            objects: &objects,
            ws: &mut sc.sssp,
        };
        let QueryOutput::Join(pairs) = execute(&mut ine, &objects, &Query::Join { eps: INFINITY })
        else {
            unreachable!("a join answers pairs")
        };
        assert!(pairs.iter().all(|&(a, b)| in_ring(a) == in_ring(b)));
    }

    #[test]
    fn label_counters_charge_one_lookup_per_merge_or_scan() {
        let (net, objects) = two_components();
        let ch = ContractionHierarchy::build(&net, &ChConfig::default());
        let hl = HubLabels::build(&ch);
        let buckets = hl.buckets(objects.host_nodes());
        let mut sc = Scratch::default();
        let n = objects.len() as u64;
        for (q, lookups) in [
            (
                Query::Range {
                    node: NodeId(3),
                    eps: 5,
                },
                n,
            ),
            (
                Query::Aggregate {
                    node: NodeId(3),
                    eps: 5,
                },
                n,
            ),
            (
                Query::Knn {
                    node: NodeId(3),
                    k: 3,
                },
                1,
            ),
            (Query::Join { eps: 5 }, n),
        ] {
            let mut oracle = sc.labels(&hl, &buckets, &objects);
            execute(&mut oracle, &objects, &q);
            assert_eq!(oracle.lookups, lookups, "{q:?}");
            assert!(oracle.scanned > 0, "{q:?} walked no entries");
        }
    }
}
