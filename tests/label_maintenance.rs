//! The query service maintains its signature index from the hub labels a
//! publish repairs, not from a spanning forest. Six update batches — plain
//! increases, decreases, one edge re-weighted twice in a batch, a no-op, a
//! closed edge the network can do without, and a detour around an object
//! host that moves object-pair categories (the compression rescan path) —
//! go through a `QueryService` with a maintenance log and through the
//! paper's `SignatureMaintainer` on a copy. After every publish:
//!
//! * every category and object-pair distance equals the forest route's
//!   (links may differ there only where the forest kept another tight
//!   parent on a tie: the forest keeps whichever it met first);
//! * every decoded signature — links included — and the object-pair table
//!   (which a self-join below the last category reads alone) equal a fresh
//!   `SignatureIndex::build` on the epoch's network;
//! * the index's bytes equal `update_from_labels` run on its own over the
//!   same batches (what the service publishes is the label route, exactly);
//! * a `checkpoint()` taken after a publish killed at `AfterIntent`
//!   recovers to the state with that batch applied.

use distance_signature::graph::generate::{random_planar, PlanarConfig};
use distance_signature::graph::{NodeId, ObjectId, ObjectSet, RoadNetwork, INFINITY};
use distance_signature::hierarchy::{ChConfig, ContractionHierarchy, HubLabels, LabelBuckets};
use distance_signature::service::{
    generate_updates, EdgeUpdate, PublishKillPoint, QueryService, ServiceConfig,
};
use distance_signature::signature::persist::write_index;
use distance_signature::signature::update::update_from_labels;
use distance_signature::signature::{SignatureConfig, SignatureIndex, SignatureMaintainer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The batch the kill point interrupts (then checkpointed and recovered).
const KILLED: usize = 2;

fn bytes(index: &SignatureIndex) -> Vec<u8> {
    let mut out = Vec::new();
    write_index(index, &mut out).unwrap();
    out
}

fn labels_of(net: &RoadNetwork, objects: &ObjectSet) -> (HubLabels, LabelBuckets) {
    let hl = HubLabels::build(&ContractionHierarchy::build(net, &ChConfig::default()));
    let buckets = hl.buckets(objects.host_nodes());
    (hl, buckets)
}

fn batches(net: &RoadNetwork, objects: &ObjectSet) -> Vec<Vec<EdgeUpdate>> {
    let first_edge = |a: NodeId| net.neighbors(a).next().map(|(_, b, w)| (a, b, w)).unwrap();
    // Increases (absolute weights in [1, 200] over edges of weight 1–10).
    let increases = generate_updates(net, 8, 3);
    // Decreases to weight 1.
    let decreases: Vec<EdgeUpdate> = net
        .nodes()
        .step_by(97)
        .filter_map(|a| {
            net.neighbors(a)
                .find(|&(_, _, w)| w > 1)
                .map(|(_, b, _)| (a, b, 1))
        })
        .collect();
    // One edge re-weighted twice in the batch, among others.
    let (a, b, w) = first_edge(NodeId(500));
    let mut twice = generate_updates(net, 4, 5);
    twice.splice(1..1, [(a, b, w + 60), (a, b, w + 3)]);
    // Every weight set to what it already is.
    let noop: Vec<EdgeUpdate> = (0..4).map(|i| first_edge(NodeId(i * 400))).collect();
    // A closed edge the network stays connected without.
    let closed = net
        .nodes()
        .step_by(13)
        .flat_map(|a| net.neighbors(a).map(move |(_, b, _)| (a, b, INFINITY)))
        .find(|&(a, b, _)| {
            let mut probe = net.clone();
            probe.set_edge_weight(a, b, INFINITY);
            probe.is_connected()
        })
        .unwrap();
    // A long detour around object 0's host: object-pair distances move
    // across category bounds.
    let host = objects.node_of(ObjectId(0));
    let detour: Vec<EdgeUpdate> = net
        .neighbors(host)
        .map(|(_, b, w)| (host, b, w + 150))
        .collect();
    vec![increases, decreases, twice, noop, vec![closed], detour]
}

#[test]
fn the_label_route_is_the_forest_route_and_a_fresh_build() {
    let mut rng = StdRng::seed_from_u64(2026);
    let net = random_planar(
        &PlanarConfig {
            num_nodes: 2_000,
            ..Default::default()
        },
        &mut rng,
    );
    let objects = ObjectSet::uniform(&net, 0.01, &mut rng);
    let sig = SignatureConfig::default();
    let cfg = ServiceConfig {
        shards: 2,
        ..ServiceConfig::default()
    };
    let dir = std::env::temp_dir().join(format!("dsi_label_maint_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut service = QueryService::new(net.clone(), objects.clone(), &sig, &cfg);
    service.attach_maintenance_log(&dir).unwrap();
    let pinned = sig.pinned_to(service.index().partition());

    // The forest route and the label route on their own, over copies.
    let mut forest_net = net.clone();
    let mut forest_idx = SignatureIndex::clone(&service.index());
    let mut forest = SignatureMaintainer::new(&net, &objects);
    let mut label_idx = SignatureIndex::clone(&service.index());
    let mut labels = labels_of(&net, &objects);

    let mut rescans = 0;
    for (round, batch) in batches(&net, &objects).into_iter().enumerate() {
        let ctx = format!("batch {round} ({} updates)", batch.len());
        let epoch = service.epoch();
        if round == KILLED {
            service.arm_publish_kill_point(PublishKillPoint::AfterIntent);
            let err = service.try_apply_updates(&batch).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::Interrupted, "{ctx}");
            assert_eq!(service.epoch(), epoch, "{ctx}: no swap before durability");
            service.checkpoint().unwrap();
            drop(service);
            let (recovered, report) = QueryService::recover(&dir, &sig, &cfg).unwrap();
            assert!(report.from_checkpoint, "{ctx}");
            assert_eq!(report.replayed, batch.len() as u64, "{ctx}");
            service = recovered;
        } else {
            let reports = service.try_apply_updates(&batch).unwrap();
            assert_eq!(reports.len(), batch.len(), "{ctx}");
            rescans += reports.iter().map(|r| r.compression_rescans).sum::<usize>();
        }
        assert_eq!(service.epoch(), epoch + 1, "{ctx}");

        for &(a, b, w) in &batch {
            forest.update_edge(&mut forest_net, &mut forest_idx, a, b, w);
        }
        let ep = service.snapshot();
        let index = ep.index();

        // Byte for byte the label route over the same batches. The
        // recovered service rebuilt its index once, so the reference
        // restarts from it.
        let next = labels_of(ep.net(), &objects);
        if round == KILLED {
            label_idx = index.clone();
        } else {
            let edges: Vec<_> = batch.iter().map(|&(a, b, _)| (a, b)).collect();
            update_from_labels(
                &mut label_idx,
                ep.net(),
                (&labels.0, &labels.1),
                (&next.0, &next.1),
                &edges,
            );
        }
        labels = next;
        assert!(
            bytes(index) == bytes(&label_idx),
            "{ctx}: bytes differ from the label route"
        );

        let fresh = SignatureIndex::build(ep.net(), &objects, &pinned);
        // The self-join below the last category reads this table alone.
        assert!(
            index.obj_dist() == fresh.obj_dist(),
            "{ctx}: the object-pair table differs from a fresh build"
        );
        for n in ep.net().nodes() {
            let (got, want, paper) = (
                index.decode_node(n),
                fresh.decode_node(n),
                forest_idx.decode_node(n),
            );
            assert_eq!(
                got.cats, want.cats,
                "{ctx}: categories at {n} vs a fresh build"
            );
            assert_eq!(
                got.links, want.links,
                "{ctx}: links at {n} vs a fresh build"
            );
            assert_eq!(
                got.cats, paper.cats,
                "{ctx}: categories at {n} vs the forest"
            );
        }
        for a in objects.objects() {
            for b in objects.objects() {
                assert_eq!(
                    index.obj_dist().get(a, b),
                    forest_idx.obj_dist().get(a, b),
                    "{ctx}: d({a}, {b})"
                );
            }
        }
    }
    assert!(rescans > 0, "no batch moved an object-pair category");
    drop(service);
    std::fs::remove_dir_all(&dir).ok();
}
