//! Network ε-joins (§4.4): pairs of objects from two datasets whose network
//! distance is within `ε`.
//!
//! With objects on nodes, `d(a, b)` equals the node-to-object distance from
//! `a`'s host node to `b`, so a join probes the *inner* dataset's signature
//! index once per outer object, pruning by category and refining only the
//! straddling candidates — the range query of §4.1, once per object.
//!
//! A self-join below the last category's lower bound needs no probe at
//! all: the object-distance table (§3.2.2) holds every pair closer than
//! that bound with its exact distance, and maintenance keeps it exact, so
//! the join is a filter over the table's rows. This departs from §4.4's
//! per-object probing; the answer is the same pair list.

use dsi_graph::{Dist, NodeId, ObjectId, ObjectSet};

use crate::ops::{OpResult, Session};
use crate::query::range::try_range_query;

/// Fallible [`epsilon_join`]: with a fault plan on the session's pool, a
/// failed page read aborts the join with the error instead of panicking.
pub fn try_epsilon_join(
    sess: &mut Session<'_>,
    outer: &ObjectSet,
    eps: Dist,
) -> OpResult<Vec<(ObjectId, ObjectId)>> {
    let mut out = Vec::new();
    for (a, host) in outer.iter() {
        for b in try_range_query(sess, host, eps)? {
            out.push((a, b));
        }
    }
    Ok(out)
}

/// ε-join: all pairs `(a, b)` with `a` from `outer` (any object set placed
/// on the same network), `b` indexed by `sess`, and `d(a, b) ≤ eps`.
/// Pairs are produced in `(a, b)` order.
pub fn epsilon_join(
    sess: &mut Session<'_>,
    outer: &ObjectSet,
    eps: Dist,
) -> Vec<(ObjectId, ObjectId)> {
    try_epsilon_join(sess, outer, eps).expect("storage fault on a session without a fault plan")
}

/// Fallible [`self_epsilon_join`]. Below the last category's lower bound
/// the pairs come from the object-distance table and no page is read;
/// from that bound on, one range query per object.
pub fn try_self_epsilon_join(
    sess: &mut Session<'_>,
    eps: Dist,
) -> OpResult<Vec<(ObjectId, ObjectId)>> {
    let index = sess.index();
    let mut out = Vec::new();
    if eps < index.partition().last_lb() {
        // Rows are id-sorted, so the pairs come out in `(a, b)` order.
        for (a, row) in index.obj_dist.rows.iter().enumerate() {
            let a = ObjectId(a as u32);
            out.extend(
                row.iter()
                    .filter(|&&(b, d)| b > a.0 && d <= eps)
                    .map(|&(b, _)| (a, ObjectId(b))),
            );
        }
        return Ok(out);
    }
    for a in index.objects() {
        let host: NodeId = index.host(a);
        for b in try_range_query(sess, host, eps)? {
            if a < b {
                out.push((a, b));
            }
        }
    }
    Ok(out)
}

/// Self ε-join over the indexed dataset itself: unordered distinct pairs
/// `(a, b)`, `a < b`, with `d(a, b) ≤ eps`.
pub fn self_epsilon_join(sess: &mut Session<'_>, eps: Dist) -> Vec<(ObjectId, ObjectId)> {
    try_self_epsilon_join(sess, eps).expect("storage fault on a session without a fault plan")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{SignatureConfig, SignatureIndex};
    use dsi_graph::generate::{random_planar, PlanarConfig};
    use dsi_graph::{sssp, INFINITY};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn join_matches_pairwise_truth() {
        let mut rng = StdRng::seed_from_u64(23);
        let net = random_planar(
            &PlanarConfig {
                num_nodes: 250,
                ..Default::default()
            },
            &mut rng,
        );
        let inner = ObjectSet::uniform(&net, 0.06, &mut rng);
        let outer = ObjectSet::uniform(&net, 0.04, &mut rng);
        let idx = SignatureIndex::build(&net, &inner, &SignatureConfig::default());
        let mut sess = idx.session(&net);
        for eps in [10u32, 60, 300] {
            let got = epsilon_join(&mut sess, &outer, eps);
            let mut truth = Vec::new();
            for (a, ha) in outer.iter() {
                let tree = sssp(&net, ha);
                for (b, hb) in inner.iter() {
                    if tree.dist[hb.index()] <= eps {
                        truth.push((a, b));
                    }
                }
            }
            assert_eq!(got, truth, "eps {eps}");
        }
    }

    #[test]
    fn self_join_excludes_self_pairs_and_duplicates() {
        let mut rng = StdRng::seed_from_u64(29);
        let net = random_planar(
            &PlanarConfig {
                num_nodes: 200,
                ..Default::default()
            },
            &mut rng,
        );
        let objects = ObjectSet::uniform(&net, 0.08, &mut rng);
        let idx = SignatureIndex::build(&net, &objects, &SignatureConfig::default());
        let mut sess = idx.session(&net);
        let pairs = self_epsilon_join(&mut sess, 100);
        for &(a, b) in &pairs {
            assert!(a < b);
        }
        let mut sorted = pairs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), pairs.len());
        // Cross-check against the object-distance truth.
        for (a, ha) in objects.iter() {
            let tree = sssp(&net, ha);
            for (b, hb) in objects.iter() {
                if a < b {
                    let expected = tree.dist[hb.index()] <= 100;
                    assert_eq!(pairs.contains(&(a, b)), expected, "pair {a},{b}");
                }
            }
        }
    }

    /// Both paths of the self-join on a tie-heavy network (weights 1–2):
    /// the table filter below the last category's lower bound, the range
    /// loop from it on, each equal to brute force. The filter reads no page
    /// and retrieves no distance.
    #[test]
    fn self_join_on_both_sides_of_the_last_category_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(43);
        let net = random_planar(
            &PlanarConfig {
                num_nodes: 400,
                max_weight: 2,
                ..Default::default()
            },
            &mut rng,
        );
        let objects = ObjectSet::uniform(&net, 0.08, &mut rng);
        let dist: Vec<Vec<Dist>> = objects.iter().map(|(_, h)| sssp(&net, h).dist).collect();
        // A spreading of a third of the widest pair puts the last category's
        // lower bound inside the pair distances: both paths have work.
        let widest = objects
            .iter()
            .map(|(_, h)| dist.iter().map(|row| row[h.index()]).max().unwrap())
            .max()
            .unwrap();
        let cfg = SignatureConfig {
            t: Some(2),
            spreading: Some(widest / 3),
            ..Default::default()
        };
        let idx = SignatureIndex::build(&net, &objects, &cfg);
        let last_lb = idx.partition().last_lb();
        assert!(last_lb > 1, "the partition has a table to read");
        let mut sess = idx.session(&net);
        for eps in [0, last_lb - 1, last_lb, last_lb + 1, INFINITY] {
            let truth: Vec<_> = objects
                .iter()
                .flat_map(|(a, _)| {
                    let row = &dist[a.index()];
                    objects
                        .iter()
                        .filter(move |&(b, hb)| a < b && row[hb.index()] <= eps)
                        .map(move |(b, _)| (a, b))
                })
                .collect();
            let (io, ops) = (sess.io_stats(), sess.stats);
            assert_eq!(self_epsilon_join(&mut sess, eps), truth, "eps {eps}");
            let read = sess.io_stats().logical - io.logical;
            if eps < last_lb {
                assert_eq!(read, 0, "eps {eps}: the table join read a page");
                assert_eq!(sess.stats, ops, "eps {eps}: the table join retrieved");
            } else {
                assert!(read > 0, "eps {eps}: the range loop read no page");
            }
        }
        let below = self_epsilon_join(&mut sess, last_lb - 1).len();
        assert!(below > 0, "the table path returned no pair to compare");
        assert!(below < self_epsilon_join(&mut sess, INFINITY).len());
    }

    #[test]
    fn zero_eps_matches_colocation_only() {
        let mut rng = StdRng::seed_from_u64(37);
        let net = random_planar(
            &PlanarConfig {
                num_nodes: 150,
                ..Default::default()
            },
            &mut rng,
        );
        let objects = ObjectSet::uniform(&net, 0.05, &mut rng);
        let idx = SignatureIndex::build(&net, &objects, &SignatureConfig::default());
        let mut sess = idx.session(&net);
        // Objects occupy distinct nodes, so a self-join at eps=0 is empty.
        assert!(self_epsilon_join(&mut sess, 0).is_empty());
        // But joining the dataset against itself as "outer" pairs each
        // object with itself.
        let pairs = epsilon_join(&mut sess, &objects, 0);
        assert_eq!(pairs.len(), objects.len());
        for (a, b) in pairs {
            assert_eq!(a, b);
        }
    }
}
