//! Aggregation queries (§4.3): aggregate values over the objects inside a
//! network-distance range, "instead of individual objects".

use dsi_graph::{Dist, NodeId};

use crate::ops::{OpResult, Session};
use crate::query::range::{range_query, try_range_query};

/// Aggregates over the objects within distance `eps` of the query node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RangeAggregate {
    /// Number of qualifying objects.
    pub count: usize,
    /// Sum of their exact distances.
    pub sum: u64,
    /// Minimum exact distance (`None` when empty).
    pub min: Option<Dist>,
    /// Maximum exact distance (`None` when empty).
    pub max: Option<Dist>,
}

impl RangeAggregate {
    /// Fold one qualifying object's exact distance in.
    pub fn add(&mut self, d: Dist) {
        self.count += 1;
        self.sum += d as u64;
        self.min = Some(self.min.map_or(d, |m| m.min(d)));
        self.max = Some(self.max.map_or(d, |m| m.max(d)));
    }

    /// Mean distance, if any objects qualified.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

impl FromIterator<Dist> for RangeAggregate {
    fn from_iter<I: IntoIterator<Item = Dist>>(dists: I) -> Self {
        let mut agg = RangeAggregate::default();
        dists.into_iter().for_each(|d| agg.add(d));
        agg
    }
}

/// Count the objects within `eps` — the cheapest aggregate: candidates are
/// confirmed/rejected by approximate retrieval only, no exact distances.
pub fn count_within(sess: &mut Session<'_>, n: NodeId, eps: Dist) -> usize {
    range_query(sess, n, eps).len()
}

/// Fallible [`aggregate_within`]: with a fault plan on the session's pool,
/// a failed page read aborts the query with the error instead of panicking.
pub fn try_aggregate_within(
    sess: &mut Session<'_>,
    n: NodeId,
    eps: Dist,
) -> OpResult<RangeAggregate> {
    let members = try_range_query(sess, n, eps)?;
    let mut agg = RangeAggregate::default();
    for o in members {
        agg.add(sess.try_retrieve_exact(n, o)?);
    }
    Ok(agg)
}

/// Full aggregate (count / sum / min / max of exact distances) over the
/// objects within `eps`. Exact distances are only retrieved for confirmed
/// results, following the two-phase paradigm of §4.3.
pub fn aggregate_within(sess: &mut Session<'_>, n: NodeId, eps: Dist) -> RangeAggregate {
    try_aggregate_within(sess, n, eps).expect("storage fault on a session without a fault plan")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{SignatureConfig, SignatureIndex};
    use dsi_graph::generate::random_planar;
    use dsi_graph::generate::PlanarConfig;
    use dsi_graph::{sssp, ObjectSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn aggregates_match_truth() {
        let mut rng = StdRng::seed_from_u64(17);
        let net = random_planar(
            &PlanarConfig {
                num_nodes: 300,
                ..Default::default()
            },
            &mut rng,
        );
        let objects = ObjectSet::uniform(&net, 0.08, &mut rng);
        let idx = SignatureIndex::build(&net, &objects, &SignatureConfig::default());
        let mut sess = idx.session(&net);
        for n in net.nodes().step_by(19) {
            let tree = sssp(&net, n);
            for eps in [5u32, 40, 400] {
                let truth: Vec<Dist> = objects
                    .iter()
                    .map(|(_, h)| tree.dist[h.index()])
                    .filter(|&d| d <= eps)
                    .collect();
                let agg = aggregate_within(&mut sess, n, eps);
                assert_eq!(agg.count, truth.len());
                assert_eq!(agg.sum, truth.iter().map(|&d| d as u64).sum::<u64>());
                assert_eq!(agg.min, truth.iter().min().copied());
                assert_eq!(agg.max, truth.iter().max().copied());
                assert_eq!(count_within(&mut sess, n, eps), truth.len());
            }
        }
    }

    #[test]
    fn empty_aggregate() {
        let mut rng = StdRng::seed_from_u64(19);
        let net = random_planar(
            &PlanarConfig {
                num_nodes: 200,
                ..Default::default()
            },
            &mut rng,
        );
        let objects = ObjectSet::uniform(&net, 0.01, &mut rng);
        let idx = SignatureIndex::build(&net, &objects, &SignatureConfig::default());
        let mut sess = idx.session(&net);
        // Find a node with no object within distance 1.
        let tree = objects.iter().map(|(_, h)| sssp(&net, h)).next().unwrap();
        let far = net.nodes().max_by_key(|v| tree.dist[v.index()]).unwrap();
        if objects.object_at(far).is_none() {
            let agg = aggregate_within(&mut sess, far, 0);
            assert_eq!(agg, RangeAggregate::default());
            assert_eq!(agg.mean(), None);
        }
    }

    #[test]
    fn mean_is_sum_over_count() {
        let agg = RangeAggregate {
            count: 4,
            sum: 10,
            min: Some(1),
            max: Some(4),
        };
        assert_eq!(agg.mean(), Some(2.5));
    }

    #[test]
    fn collecting_distances_folds_every_field() {
        let agg: RangeAggregate = [3, 1, 4, 2].into_iter().collect();
        assert_eq!(
            agg,
            RangeAggregate {
                count: 4,
                sum: 10,
                min: Some(1),
                max: Some(4),
            }
        );
        assert_eq!(
            std::iter::empty().collect::<RangeAggregate>(),
            RangeAggregate::default()
        );
    }
}
