//! A publish costs what changed: one update batch through
//! `QueryService::try_apply_updates` on a 2,000-node network must leave the
//! signature backend element-wise equal to `Backend::Dijkstra` on the new
//! epoch, and the distance lookups its reports count must stay within a
//! degree factor of the `(node, object)` distances that changed plus the
//! batch's endpoints — exact counts, so the guard is host-independent: an
//! `O(n)` pass creeping back into the repair breaks the inequality on any
//! machine. The same goes for the
//! distance oracle: the publish re-contracts and re-labels a bounded share
//! of the nodes, and a batch that changes no weight none at all.

use std::time::Instant;

use distance_signature::graph::generate::{random_planar, PlanarConfig};
use distance_signature::graph::ObjectSet;
use distance_signature::service::{
    generate, generate_updates, Backend, QueryOutput, QueryService, ServiceConfig, WorkloadConfig,
    WorkloadMix,
};
use distance_signature::signature::update::UpdateReport;
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

    // The label-driven signature repair examines the batch's endpoints
    // for every object, then only the changed `(node, object)` distances'
    // neighbourhoods: its lookups stay within a degree factor of what
    // changed plus the endpoints, however large the network is.
    let total = |f: fn(&UpdateReport) -> usize| reports.iter().map(f).sum::<usize>();
    let (reset, visited) = (
        total(|r| r.tree_nodes_reset),
        total(|r| r.tree_nodes_visited),
    );
    let seeds = 2 * updates.len() * service.objects().len();
    assert!(
        visited <= (max_degree + 1) * (reset + seeds),
        "looked up {visited} distances for {reset} changed and {seeds} endpoint entries"
    );
    assert!(total(|r| r.entries_changed) <= visited);
    for (r, u) in reports.iter().zip(&updates) {
        assert!(r.tree_nodes_reset <= r.tree_nodes_visited, "update {u:?}");
    }
    assert!(
        reset > 0,
        "the batch changed no distance; the guard is vacuous"
    );

    // The service's own account of the publish: phases partition the call.
    let profile = service.last_publish_profile();
    assert!(profile.maintain > Default::default());
    assert!(profile.hierarchy > Default::default());
    assert!(profile.labels > Default::default());
    assert!(profile.signature > Default::default());
    assert_eq!(profile.partitions, Default::default(), "not sharded");
    assert!(profile.total() <= wall);
    // The hierarchy and its labels are repaired, not rebuilt: the batch
    // dirties some witness searches, far from all of them.
    let n = net.num_nodes();
    assert!(
        0 < profile.ch_recontracted && profile.ch_recontracted <= n / 2,
        "{} of {n} nodes recontracted",
        profile.ch_recontracted
    );
    assert!(profile.labels_changed <= profile.labels_rebuilt);
    assert!(profile.labels_rebuilt <= n);

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

    // A batch that re-sets an edge to the weight it has still publishes,
    // and the oracle repair does no work at all.
    let net = service.net();
    let (a, b, w) = net
        .nodes()
        .find_map(|a| net.neighbors(a).next().map(|(_, b, w)| (a, b, w)))
        .expect("the network has an edge");
    service
        .try_apply_updates(&[(a, b, w)])
        .expect("no maintenance log attached, nothing to fail");
    assert_eq!(service.epoch(), 2);
    let profile = service.last_publish_profile();
    assert_eq!(
        (
            profile.ch_recontracted,
            profile.labels_rebuilt,
            profile.labels_changed
        ),
        (0, 0, 0)
    );
}
