//! Output checking. Two references, so a bug in operator code that every
//! backend shares cannot hide: the service's own `Backend::Dijkstra` on the
//! same epoch, and a brute force the harness owns (one full `sssp` per
//! query, then a linear scan of the objects).
//!
//! kNN is compared by distance sequence: backends may break a distance tie
//! at the k-th place differently, and both answers are correct.

use dsi_graph::{sssp, Dist, NodeId, ObjectSet, RoadNetwork, INFINITY};
use dsi_service::{Query, QueryOutput};
use dsi_signature::query::aggregate::RangeAggregate;

/// Operations checked so far and how many disagreed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub checked: u64,
    pub failed: u64,
}

fn knn_dists(out: &QueryOutput) -> Option<Vec<Option<Dist>>> {
    match out {
        QueryOutput::Knn(rs) => Some(rs.iter().map(|r| r.dist).collect()),
        _ => None,
    }
}

/// Whether two outputs of one query agree (tie-aware for kNN).
pub fn agree(got: &QueryOutput, want: &QueryOutput) -> bool {
    match (knn_dists(got), knn_dists(want)) {
        (Some(a), Some(b)) => a == b,
        (None, None) => got == want,
        _ => false,
    }
}

/// Compare a served batch with a reference batch over the same queries;
/// disagreements go to stderr and into `tally`.
pub fn compare(
    what: &str,
    queries: &[Query],
    got: &[QueryOutput],
    want: &[QueryOutput],
    tally: &mut Tally,
) {
    assert_eq!(queries.len(), got.len());
    assert_eq!(queries.len(), want.len());
    for (i, q) in queries.iter().enumerate() {
        tally.checked += 1;
        if !agree(&got[i], &want[i]) {
            tally.failed += 1;
            eprintln!(
                "MISMATCH {what} #{i} {q:?}: got {:?}, want {:?}",
                got[i], want[i]
            );
        }
    }
}

/// Check point-query outputs against the brute force on `net`.
pub fn compare_brute_force(
    what: &str,
    net: &RoadNetwork,
    objects: &ObjectSet,
    queries: &[Query],
    got: &[QueryOutput],
    tally: &mut Tally,
) {
    assert_eq!(queries.len(), got.len());
    for (q, out) in queries.iter().zip(got) {
        tally.checked += 1;
        if !matches_truth(net, objects, q, out) {
            tally.failed += 1;
            eprintln!("MISMATCH {what} {q:?} against brute force: got {out:?}");
        }
    }
}

/// `(distance, object)` of every reachable object from `node`, ascending.
fn object_dists(net: &RoadNetwork, objects: &ObjectSet, node: NodeId) -> Vec<(Dist, u32)> {
    let tree = sssp(net, node);
    let mut ds: Vec<(Dist, u32)> = objects
        .iter()
        .map(|(o, host)| (tree.dist[host.index()], o.0))
        .filter(|&(d, _)| d != INFINITY)
        .collect();
    ds.sort_unstable();
    ds
}

fn matches_truth(net: &RoadNetwork, objects: &ObjectSet, q: &Query, out: &QueryOutput) -> bool {
    match (*q, out) {
        (Query::Range { node, eps }, QueryOutput::Range(got)) => {
            let mut want: Vec<u32> = object_dists(net, objects, node)
                .into_iter()
                .filter(|&(d, _)| d <= eps)
                .map(|(_, o)| o)
                .collect();
            want.sort_unstable();
            got.iter().map(|o| o.0).eq(want)
        }
        (Query::Knn { node, k }, QueryOutput::Knn(got)) => {
            let ds = object_dists(net, objects, node);
            let want = &ds[..k.min(ds.len())];
            // Same distances in the same order, and every object named
            // really lies at the distance reported for it, once.
            let mut seen: Vec<u32> = got.iter().map(|r| r.object.0).collect();
            seen.sort_unstable();
            seen.dedup();
            seen.len() == got.len()
                && got.len() == want.len()
                && got.iter().zip(want).all(|(r, &(d, _))| r.dist == Some(d))
                && got
                    .iter()
                    .all(|r| ds.contains(&(r.dist.expect("checked"), r.object.0)))
        }
        (Query::Aggregate { node, eps }, QueryOutput::Aggregate(got)) => {
            let within: Vec<Dist> = object_dists(net, objects, node)
                .into_iter()
                .map(|(d, _)| d)
                .filter(|&d| d <= eps)
                .collect();
            *got == RangeAggregate {
                count: within.len(),
                sum: within.iter().map(|&d| d as u64).sum(),
                min: within.first().copied(),
                max: within.last().copied(),
            }
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_graph::generate::grid;
    use dsi_graph::ObjectId;
    use dsi_signature::KnnResult;

    fn knn(rs: &[(u32, Dist)]) -> QueryOutput {
        QueryOutput::Knn(
            rs.iter()
                .map(|&(o, d)| KnnResult {
                    object: ObjectId(o),
                    dist: Some(d),
                })
                .collect(),
        )
    }

    #[test]
    fn knn_ties_at_the_cut_agree_but_wrong_distances_do_not() {
        assert!(agree(&knn(&[(1, 5), (2, 9)]), &knn(&[(1, 5), (7, 9)])));
        assert!(!agree(&knn(&[(1, 5), (2, 9)]), &knn(&[(1, 5), (2, 10)])));
        assert!(!agree(&knn(&[(1, 5)]), &knn(&[(1, 5), (2, 9)])));
        let r = |ids: &[u32]| QueryOutput::Range(ids.iter().map(|&i| ObjectId(i)).collect());
        assert!(agree(&r(&[1, 2]), &r(&[1, 2])));
        assert!(!agree(&r(&[1, 2]), &r(&[1, 3])));
        assert!(!agree(&r(&[1]), &knn(&[(1, 5)])));
    }

    #[test]
    fn brute_force_accepts_truth_and_rejects_a_wrong_answer() {
        // 4x4 unit grid, objects on nodes 0 and 15; query from node 5
        // (row 1, col 1): d(5,0) = 2, d(5,15) = 4.
        let net = grid(4, 4);
        let objects = ObjectSet::from_nodes(&net, vec![NodeId(0), NodeId(15)]);
        let node = NodeId(5);
        let mut tally = Tally::default();
        let queries = [
            Query::Range { node, eps: 3 },
            Query::Knn { node, k: 5 },
            Query::Aggregate { node, eps: 4 },
        ];
        let good = [
            QueryOutput::Range(vec![ObjectId(0)]),
            knn(&[(0, 2), (1, 4)]),
            QueryOutput::Aggregate(RangeAggregate {
                count: 2,
                sum: 6,
                min: Some(2),
                max: Some(4),
            }),
        ];
        compare_brute_force("test", &net, &objects, &queries, &good, &mut tally);
        assert_eq!(
            tally,
            Tally {
                checked: 3,
                failed: 0
            }
        );
        let bad = [
            QueryOutput::Range(vec![ObjectId(0), ObjectId(1)]),
            knn(&[(1, 2), (0, 4)]), // right distances, wrong objects
            QueryOutput::Aggregate(RangeAggregate::default()),
        ];
        compare_brute_force("test", &net, &objects, &queries, &bad, &mut tally);
        assert_eq!(
            tally,
            Tally {
                checked: 6,
                failed: 3
            }
        );
    }
}
