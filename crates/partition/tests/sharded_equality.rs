//! Element-wise equality of sharded answers against the single-index
//! baseline, across K ∈ {1, 2, 4, 8} (K = 1 degenerates to the existing
//! single-index path).
//!
//! kNN/CNN comparisons filter query nodes whose k-th distance is tied
//! (independent Dijkstra ground truth): at a tied cut both sides return a
//! correct-but-possibly-different tied object, exactly as in the service
//! equivalence suite.

use dsi_graph::generate::{random_planar, PlanarConfig};
use dsi_graph::{sssp, Dist, NodeId, ObjectSet, RoadNetwork};
use dsi_partition::{PartitionedIndex, ShardedSessions};
use dsi_signature::query::join::self_epsilon_join;
use dsi_signature::{KnnType, SignatureConfig, SignatureIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;

const KS: [usize; 4] = [1, 2, 4, 8];
const POOL_PAGES: usize = 4;

fn fixture(nodes: usize, seed: u64) -> (RoadNetwork, ObjectSet) {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = random_planar(
        &PlanarConfig {
            num_nodes: nodes,
            ..Default::default()
        },
        &mut rng,
    );
    let objects = ObjectSet::uniform(&net, 0.06, &mut rng);
    (net, objects)
}

/// Query nodes spread over the network.
fn query_nodes(net: &RoadNetwork) -> Vec<NodeId> {
    net.nodes().step_by(net.num_nodes() / 40 + 1).collect()
}

/// True when the k-th nearest distance from `q` is not tied with the
/// (k+1)-th — the only case where the result *set* is unique.
fn knn_cut_tie_free(net: &RoadNetwork, objects: &ObjectSet, q: NodeId, k: usize) -> bool {
    let tree = sssp(net, q);
    let mut dists: Vec<Dist> = objects.iter().map(|(_, h)| tree.dist[h.index()]).collect();
    dists.sort_unstable();
    k >= dists.len() || dists[k - 1] != dists[k]
}

/// Representative range radii for the fixture's weight scale.
fn radii(net: &RoadNetwork, objects: &ObjectSet) -> Vec<Dist> {
    // Anchor on a real distance so small and large ranges both match
    // non-trivial object subsets.
    let tree = sssp(net, NodeId(0));
    let mut dists: Vec<Dist> = objects.iter().map(|(_, h)| tree.dist[h.index()]).collect();
    dists.sort_unstable();
    let mid = dists[dists.len() / 2];
    vec![mid / 4, mid, mid.saturating_mul(2)]
}

#[test]
fn sharded_answers_match_the_single_index_for_every_k() {
    let (net, objects) = fixture(400, 71);
    let config = SignatureConfig::default();
    let single = SignatureIndex::build(&net, &objects, &config);
    let mut base = single.session(&net);
    let queries = query_nodes(&net);
    let eps_list = radii(&net, &objects);

    for k_parts in KS {
        let pidx = PartitionedIndex::build(&net, &objects, &config, k_parts);
        assert_eq!(pidx.num_objects(), objects.len());
        if k_parts == 1 {
            assert_eq!(pidx.num_parts(), 1);
            assert_eq!(pidx.num_boundary(), 0, "K=1 must have no boundary");
        }
        let mut sharded = ShardedSessions::new(&pidx, POOL_PAGES);
        for &q in &queries {
            for &eps in &eps_list {
                assert_eq!(
                    sharded.range(q, eps),
                    base.range(q, eps),
                    "range(q={q}, eps={eps}) diverged at K={k_parts}"
                );
                assert_eq!(
                    sharded.aggregate(q, eps),
                    base.aggregate(q, eps),
                    "aggregate(q={q}, eps={eps}) diverged at K={k_parts}"
                );
            }
            for k in [1usize, 3, 8] {
                if !knn_cut_tie_free(&net, &objects, q, k) {
                    continue;
                }
                assert_eq!(
                    sharded.knn(q, k),
                    base.knn(q, k, KnnType::Type1),
                    "knn(q={q}, k={k}) diverged at K={k_parts}"
                );
            }
        }
        let ops = sharded.op_stats();
        assert!(
            ops.label_lookups > 0 || k_parts == 1,
            "K={k_parts} never glued through the boundary labels"
        );
    }
}

#[test]
fn sharded_join_matches_the_single_index_for_every_k() {
    let (net, objects) = fixture(300, 72);
    let config = SignatureConfig::default();
    let single = SignatureIndex::build(&net, &objects, &config);
    let mut base = single.session(&net);
    // The single index filters its object-pair table below the last
    // category's lower bound and runs range queries from it on; the
    // regions run range queries throughout. Join on both sides.
    let last_lb = single.partition().last_lb();
    let mut eps_set = radii(&net, &objects);
    eps_set.extend([last_lb - 1, last_lb]);
    for &eps in &eps_set {
        let mut want = self_epsilon_join(&mut base, eps);
        want.sort_unstable();
        for k_parts in KS {
            let pidx = PartitionedIndex::build(&net, &objects, &config, k_parts);
            let mut sharded = ShardedSessions::new(&pidx, POOL_PAGES);
            assert_eq!(
                sharded.join(eps),
                want,
                "join(eps={eps}) diverged at K={k_parts}"
            );
        }
    }
}

#[test]
fn sharded_continuous_knn_matches_the_single_index() {
    let (net, objects) = fixture(300, 73);
    let config = SignatureConfig::default();
    let single = SignatureIndex::build(&net, &objects, &config);
    let mut base = single.session(&net);

    // A walk of adjacent nodes (the CNN operator requires a real path),
    // avoiding immediate backtracking so it covers ground.
    let walk = |start: NodeId, len: usize| -> Vec<NodeId> {
        let mut path = vec![start];
        let mut prev = start;
        while path.len() < len {
            let cur = *path.last().unwrap();
            let Some((_, next, _)) = net
                .neighbors(cur)
                .find(|&(_, v, _)| v != prev)
                .or_else(|| net.neighbors(cur).next())
            else {
                break;
            };
            prev = cur;
            path.push(next);
        }
        path
    };

    for k in [1usize, 3] {
        // Tie-free paths only: at a tied cut both sides may keep a
        // different tied object, which is correct but not comparable.
        let path = (0..net.num_nodes())
            .step_by(13)
            .map(|s| walk(NodeId(s as u32), 40))
            .find(|p| p.len() == 40 && p.iter().all(|&q| knn_cut_tie_free(&net, &objects, q, k)))
            .expect("no tie-free walk found — fixture too degenerate");
        let want = base.continuous_knn(&path, k);

        for k_parts in KS {
            let pidx = PartitionedIndex::build(&net, &objects, &config, k_parts);
            let mut sharded = ShardedSessions::new(&pidx, POOL_PAGES);
            assert_eq!(
                sharded.continuous_knn(&path, k),
                want,
                "cnn(k={k}) diverged at K={k_parts}"
            );
        }
    }
}
