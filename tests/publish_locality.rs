//! A publish costs what changed: one update batch through
//! `QueryService::try_apply_updates` on a 2,000-node network must leave the
//! signature backend element-wise equal to `Backend::Dijkstra` on the new
//! epoch, and the spanning-forest work its reports count must stay within a
//! degree factor of the nodes the repair actually reset — exact counts, so
//! the guard is host-independent: an `O(n)` pass creeping back into the
//! repair breaks the inequality on any machine.

use std::time::Instant;

use distance_signature::graph::generate::{random_planar, PlanarConfig};
use distance_signature::graph::ObjectSet;
use distance_signature::service::{
    generate, generate_updates, Backend, QueryOutput, QueryService, ServiceConfig, WorkloadConfig,
    WorkloadMix,
};
use distance_signature::signature::{KnnResult, SignatureConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn publish_work_is_bounded_by_damage_and_answers_stay_exact() {
    let mut rng = StdRng::seed_from_u64(18);
    let net = random_planar(
        &PlanarConfig {
            num_nodes: 2_000,
            ..Default::default()
        },
        &mut rng,
    );
    let objects = ObjectSet::uniform(&net, 0.01, &mut rng);
    let max_degree = net
        .nodes()
        .map(|u| net.neighbors(u).count())
        .max()
        .expect("non-empty network");
    let service = QueryService::new(
        net,
        objects,
        &SignatureConfig::default(),
        &ServiceConfig::default(),
    );

    // Re-weights to absolute values in [1, 200] over edges of weight 1–10:
    // mostly increases; the cheapened edges below add the decrease side.
    let net = service.net();
    let mut updates = generate_updates(&net, 8, 4);
    for a in net.nodes().step_by(499) {
        if let Some((_, b, _)) = net.neighbors(a).find(|&(_, _, w)| w > 1) {
            updates.push((a, b, 1));
        }
    }
    let started = Instant::now();
    let reports = service
        .try_apply_updates(&updates)
        .expect("no maintenance log attached, nothing to fail");
    let wall = started.elapsed();
    assert_eq!(service.epoch(), 1);
    assert_eq!(reports.len(), updates.len());

    for (r, u) in reports.iter().zip(&updates) {
        assert!(
            r.tree_nodes_visited <= 4 * r.tree_nodes_reset * (max_degree + 1),
            "update {u:?}: visited {} tree nodes to reset {}",
            r.tree_nodes_visited,
            r.tree_nodes_reset
        );
        assert!(r.entries_changed <= r.tree_nodes_reset, "update {u:?}");
    }
    let reset: usize = reports.iter().map(|r| r.tree_nodes_reset).sum();
    assert!(reset > 0, "the batch damaged no tree; the guard is vacuous");

    // The service's own account of the publish: phases partition the call.
    let profile = service.last_publish_profile();
    assert!(profile.maintain > Default::default());
    assert!(profile.hierarchy > Default::default());
    assert!(profile.labels > Default::default());
    assert_eq!(profile.partitions, Default::default(), "not sharded");
    assert!(profile.total() <= wall);

    let batch = generate(
        &service.net(),
        &WorkloadConfig {
            mix: WorkloadMix {
                join: 2,
                ..Default::default()
            },
            count: 300,
            seed: 18,
            ..Default::default()
        },
    );
    let sig = service.serve_batch_on(Backend::Signature, &batch, 2);
    let ine = service.serve_batch_on(Backend::Dijkstra, &batch, 2);
    assert_eq!(sig.degraded_count() + sig.shed, 0);
    for (i, (s, d)) in sig.outputs.iter().zip(&ine.outputs).enumerate() {
        let ctx = format!("epoch 1, query {i} ({:?})", batch[i]);
        match (s, d) {
            // Result sets are orderless on the signature side.
            (QueryOutput::Range(a), QueryOutput::Range(b)) => {
                let mut a = a.clone();
                a.sort_unstable();
                assert_eq!(&a, b, "{ctx}");
            }
            (QueryOutput::Join(a), QueryOutput::Join(b)) => {
                let mut a = a.clone();
                a.sort_unstable();
                assert_eq!(&a, b, "{ctx}");
            }
            // Ties at the k-th distance may resolve to different objects.
            (QueryOutput::Knn(a), QueryOutput::Knn(b)) => {
                let dists = |rs: &[KnnResult]| rs.iter().map(|r| r.dist).collect::<Vec<_>>();
                assert_eq!(dists(a), dists(b), "{ctx}");
            }
            (s, d) => assert_eq!(s, d, "{ctx}"),
        }
    }
}
