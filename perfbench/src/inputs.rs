//! Everything a run feeds the program. The *dataset* — network, objects,
//! which nodes are popular, and the schedule of edge re-weightings — is one
//! fixed instance, generated from [`DATASET_SEED`]; the *queries* — which
//! nodes are asked, radii, `k`, the order of joins — are drawn from
//! `--seed`. The program under test sees only these generated inputs, never
//! a seed.
//!
//! Why the dataset does not follow `--seed`: ten networks from ten seeds
//! differ by 6.5 % (quartile distance over median) in `index_bytes_per_node`,
//! which is exact for any one of them, and by 20-30 % in throughput; ten
//! update schedules over one network still differ by 7 % in `sig_cold`
//! throughput (the maintained index differs) and 22 % in publish time (the
//! cost of one edge update is heavy-tailed). Either is more than a regression
//! gate can absorb. Ten query samples over one dataset differ by no more
//! than two runs of one seed do. (Measurements in the README.)

use dsi_graph::generate::{random_planar, PlanarConfig};
use dsi_graph::{NodeId, ObjectSet, RoadNetwork};
use dsi_service::{generate_updates, EdgeUpdate, Query, Skew};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::spec::{Scale, Workload};

/// Seed of the one dataset every run uses.
pub const DATASET_SEED: u64 = 42;
/// Radii of point queries: at most a quarter of the network's eccentricity
/// (about 613 at 16,000 nodes) — local queries, the paper's premise.
pub const EPS_RANGE: (u32, u32) = (30, 150);
pub const K_RANGE: (usize, usize) = (1, 10);
/// Join radii. Every join round holds each equally often (in seeded order),
/// so a round's p50 does not jump between radii.
pub const JOIN_EPS: [u32; 5] = [75, 80, 85, 90, 95];
/// Edge updates per publish.
pub const UPDATES_PER_PUBLISH: usize = 8;
/// Rounds of point queries generated up front; a run that serves more
/// wraps around.
const POOL_ROUNDS: usize = 32;

/// Independent seed streams, so adding a draw to one input does not shift
/// another.
fn stream(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub struct Inputs {
    pub net: RoadNetwork,
    pub objects: ObjectSet,
}

/// The dataset: the paper's synthetic network (random planar points, mean
/// degree 4, weights 1-10) and its "0.01" object set (uniform, density 0.01).
pub fn dataset(scale: Scale) -> Inputs {
    let net = random_planar(
        &PlanarConfig {
            num_nodes: scale.nodes,
            mean_degree: 4.0,
            max_weight: 10,
        },
        &mut StdRng::seed_from_u64(stream(DATASET_SEED, 1)),
    );
    let objects = ObjectSet::uniform(
        &net,
        0.01,
        &mut StdRng::seed_from_u64(stream(DATASET_SEED, 2)),
    );
    Inputs { net, objects }
}

/// The run's point-query traffic, cut into rounds: range / kNN / aggregate
/// 40/40/20 (joins get rounds of their own, so their latency is not hidden
/// in a point-query percentile), nodes uniform or Zipfian as the workload
/// says. Under Zipf the `r`-th most popular node is drawn with probability
/// proportional to `r^-theta`; which node holds which rank is part of the
/// dataset, so hot spots stay where they are from round to round, epoch to
/// epoch and seed to seed.
pub struct PointRounds {
    pool: Vec<Query>,
    per_round: usize,
    next: usize,
}

impl PointRounds {
    pub fn new(net: &RoadNetwork, w: &Workload, scale: Scale, seed: u64) -> Self {
        let per_round = (w.point_queries / scale.round_div).max(1);
        let mut by_rank: Vec<NodeId> = net.nodes().collect();
        by_rank.shuffle(&mut StdRng::seed_from_u64(stream(DATASET_SEED, 3)));
        // Cumulative rank weights; empty means uniform.
        let cumulative: Vec<f64> = match w.skew {
            Skew::Uniform => Vec::new(),
            Skew::Zipf { theta } => (1..=by_rank.len())
                .scan(0.0, |acc, r| {
                    *acc += (r as f64).powf(-theta);
                    Some(*acc)
                })
                .collect(),
        };
        let mut rng = StdRng::seed_from_u64(stream(seed, 3));
        let pool = (0..per_round * POOL_ROUNDS)
            .map(|_| {
                let node = match cumulative.last() {
                    None => by_rank[rng.gen_range(0..by_rank.len())],
                    Some(&total) => {
                        let x = rng.gen_range(0.0..total);
                        by_rank[cumulative
                            .partition_point(|&c| c <= x)
                            .min(by_rank.len() - 1)]
                    }
                };
                let eps = rng.gen_range(EPS_RANGE.0..=EPS_RANGE.1);
                match rng.gen_range(0..5) {
                    0 | 1 => Query::Range { node, eps },
                    2 | 3 => Query::Knn {
                        node,
                        k: rng.gen_range(K_RANGE.0..=K_RANGE.1),
                    },
                    _ => Query::Aggregate { node, eps },
                }
            })
            .collect();
        PointRounds {
            pool,
            per_round,
            next: 0,
        }
    }

    pub fn next_round(&mut self) -> &[Query] {
        let start = (self.next % POOL_ROUNDS) * self.per_round;
        self.next += 1;
        &self.pool[start..start + self.per_round]
    }
}

/// The `round`-th join round of a run.
pub fn join_round(w: &Workload, scale: Scale, seed: u64, round: u64) -> Vec<Query> {
    let mut joins: Vec<Query> = (0..(w.joins / scale.round_div).max(1))
        .map(|i| Query::Join {
            eps: JOIN_EPS[i % JOIN_EPS.len()],
        })
        .collect();
    joins.shuffle(&mut StdRng::seed_from_u64(stream(seed, 4 + (round << 8))));
    joins
}

/// The edge updates that open epoch `epoch` (≥ 1), drawn on the network the
/// previous epoch served. Part of the dataset: the same for every seed.
pub fn updates(net: &RoadNetwork, epoch: u64) -> Vec<EdgeUpdate> {
    generate_updates(
        net,
        UPDATES_PER_PUBLISH,
        stream(DATASET_SEED, 5 + (epoch << 8)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn same_seed_same_traffic_different_seed_different_traffic() {
        let w = &WORKLOADS[0];
        let data = dataset(Scale::SMOKE);
        assert_eq!(data.net.num_nodes(), Scale::SMOKE.nodes);
        assert_eq!(
            data.objects.host_nodes(),
            dataset(Scale::SMOKE).objects.host_nodes()
        );
        let round = |seed| {
            PointRounds::new(&data.net, w, Scale::SMOKE, seed)
                .next_round()
                .to_vec()
        };
        assert_eq!(round(42), round(42));
        assert_ne!(round(42), round(7));
        assert_eq!(updates(&data.net, 1), updates(&data.net, 1));
        assert_ne!(updates(&data.net, 1), updates(&data.net, 2));
        assert_eq!(
            join_round(w, Scale::FULL, 42, 3),
            join_round(w, Scale::FULL, 42, 3)
        );
        assert_ne!(
            join_round(w, Scale::FULL, 42, 3),
            join_round(w, Scale::FULL, 7, 3)
        );
    }

    #[test]
    fn traffic_has_the_mix_and_the_skew_it_claims() {
        let data = dataset(Scale::SMOKE);
        let count = |qs: &[Query], f: fn(&Query) -> bool| qs.iter().filter(|q| f(q)).count() as f64;
        for (w, zipf) in [(&WORKLOADS[0], true), (&WORKLOADS[1], false)] {
            let pool = PointRounds::new(&data.net, w, Scale::FULL, 5).pool;
            let n = pool.len() as f64;
            assert!((count(&pool, |q| matches!(q, Query::Range { .. })) / n - 0.4).abs() < 0.02);
            assert!((count(&pool, |q| matches!(q, Query::Knn { .. })) / n - 0.4).abs() < 0.02);
            // Share of traffic on the hottest 5 % of nodes.
            let mut hits = vec![0usize; data.net.num_nodes()];
            for q in &pool {
                if let Query::Range { node, .. }
                | Query::Knn { node, .. }
                | Query::Aggregate { node, .. } = q
                {
                    hits[node.index()] += 1;
                }
            }
            hits.sort_unstable_by(|a, b| b.cmp(a));
            let top = hits[..hits.len() / 20].iter().sum::<usize>() as f64 / n;
            assert_eq!(top > 0.5, zipf, "{}: top-5% share {top}", w.name);
        }
        // Every join round holds each radius equally often.
        let joins = join_round(&WORKLOADS[0], Scale::FULL, 9, 0);
        for eps in JOIN_EPS {
            assert_eq!(
                joins.iter().filter(|q| **q == Query::Join { eps }).count(),
                joins.len() / 5
            );
        }
    }

    #[test]
    fn rounds_differ_and_wrap() {
        let w = &WORKLOADS[1];
        let inputs = dataset(Scale::SMOKE);
        let mut rounds = PointRounds::new(&inputs.net, w, Scale::SMOKE, 1);
        let first = rounds.next_round().to_vec();
        assert_eq!(first.len(), w.point_queries / Scale::SMOKE.round_div);
        assert_ne!(first, rounds.next_round());
        for _ in 2..POOL_ROUNDS {
            rounds.next_round();
        }
        assert_eq!(first, rounds.next_round());
    }
}
