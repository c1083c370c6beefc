//! The query service end to end on the hub-label backend: a mixed batch
//! (range / kNN / aggregate / ε-join) served through `QueryService` on
//! `Backend::HubLabel` must equal `Backend::Dijkstra` element-wise — same
//! id order, same `(dist, object)` tie cut at k — on the initial epoch and
//! again after a publish. The second half is what proves the per-epoch
//! object buckets are rebuilt with the labels rather than carried stale.

use distance_signature::graph::generate::{random_planar, PlanarConfig};
use distance_signature::graph::ObjectSet;
use distance_signature::service::{
    generate, Backend, QueryService, ServiceConfig, WorkloadConfig, WorkloadMix,
};
use distance_signature::signature::SignatureConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn hub_label_backend_equals_dijkstra_across_a_publish() {
    let mut rng = StdRng::seed_from_u64(2006);
    let net = random_planar(
        &PlanarConfig {
            num_nodes: 300,
            ..Default::default()
        },
        &mut rng,
    );
    let objects = ObjectSet::uniform(&net, 0.05, &mut rng);
    let service = QueryService::new(
        net,
        objects,
        &SignatureConfig::default(),
        &ServiceConfig::default(),
    );
    // Edge weights are 1..=10, so these radii run from "nothing qualifies"
    // to most of the network; k runs past |objects|.
    let batch = generate(
        &service.net(),
        &WorkloadConfig {
            mix: WorkloadMix {
                join: 4,
                ..Default::default()
            },
            eps_range: (0, 40),
            k_range: (1, service.objects().len() + 2),
            join_eps: 15,
            count: 200,
            seed: 16,
            ..Default::default()
        },
    );

    let hl0 = service.serve_batch_on(Backend::HubLabel, &batch, 2);
    let ine0 = service.serve_batch_on(Backend::Dijkstra, &batch, 2);
    assert_eq!(service.epoch(), 0);
    for (i, (a, b)) in hl0.outputs.iter().zip(&ine0.outputs).enumerate() {
        assert_eq!(a, b, "epoch 0, query {i} ({:?})", batch[i]);
    }
    assert_eq!(hl0.degraded_count() + hl0.shed, 0);

    // Make one object's host expensive to reach, so answers near it move.
    let host = service.objects().iter().next().expect("objects exist").1;
    let updates: Vec<_> = service
        .net()
        .neighbors(host)
        .map(|(_, b, w)| (host, b, w + 5_000))
        .collect();
    service
        .try_apply_updates(&updates)
        .expect("no maintenance log attached, nothing to fail");
    assert_eq!(service.epoch(), 1);

    let hl1 = service.serve_batch_on(Backend::HubLabel, &batch, 2);
    let ine1 = service.serve_batch_on(Backend::Dijkstra, &batch, 2);
    assert_ne!(
        ine0.outputs, ine1.outputs,
        "the update changed no answer — stale buckets would go unnoticed"
    );
    for (i, (a, b)) in hl1.outputs.iter().zip(&ine1.outputs).enumerate() {
        assert_eq!(a, b, "epoch 1, query {i} ({:?})", batch[i]);
    }
}
