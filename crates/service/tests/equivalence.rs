//! Concurrency equivalence: a multi-worker batch must be indistinguishable
//! (results *and* logical cost accounting) from the same batch served
//! serially, and maintenance applied between batches must be visible to the
//! next batch.

use dsi_graph::generate::{random_planar, PlanarConfig};
use dsi_graph::ObjectSet;
use dsi_service::{
    generate, Backend, Query, QueryOutput, QueryService, ServiceConfig, Skew, WorkloadConfig,
    WorkloadMix,
};
use dsi_signature::{KnnResult, OpStats, SignatureConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A fresh service over a deterministic 300-node planar network.
///
/// Logical page accesses are charged on every signature consult *before*
/// the decode cache is checked, so the merged logical totals depend only on
/// which queries each shard serves — never on worker scheduling or cache
/// warmth. The generous `pool_pages` just keeps the runs warm.
fn build_service(seed: u64) -> QueryService {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = random_planar(
        &PlanarConfig {
            num_nodes: 300,
            ..Default::default()
        },
        &mut rng,
    );
    let objects = ObjectSet::uniform(&net, 0.05, &mut rng);
    assert!(objects.len() >= 5, "need a non-trivial object set");
    QueryService::new(
        net,
        objects,
        &SignatureConfig::default(),
        &ServiceConfig {
            shards: 8,
            pool_pages: 128,
            ..Default::default()
        },
    )
}

fn mixed_batch(service: &QueryService, count: usize, seed: u64) -> Vec<Query> {
    generate(
        &service.net(),
        &WorkloadConfig {
            count,
            seed,
            skew: Skew::Zipf { theta: 0.8 },
            ..Default::default()
        },
    )
}

/// kNN answers are unique only up to ties at the k-th distance: any object
/// tied with the cut is a legitimate k-th result. Both backends sort by
/// `(dist, object)`, so the distance profiles must match exactly and the
/// object sets must match strictly below the k-th distance.
fn assert_knn_equivalent(a: &[KnnResult], b: &[KnnResult], ctx: &str) {
    let dists = |rs: &[KnnResult]| rs.iter().map(|r| r.dist).collect::<Vec<_>>();
    assert_eq!(dists(a), dists(b), "{ctx}: distance profile");
    let kth = a.last().and_then(|r| r.dist);
    let strict = |rs: &[KnnResult]| {
        rs.iter()
            .filter(|r| r.dist < kth)
            .map(|r| r.object)
            .collect::<Vec<_>>()
    };
    assert_eq!(
        strict(a),
        strict(b),
        "{ctx}: objects below the k-th distance"
    );
}

/// Signature-backend outputs vs Dijkstra-backend outputs for one batch.
/// Orderless result sets are compared sorted; kNN is compared tie-aware.
fn assert_backends_agree(sig: &[QueryOutput], ine: &[QueryOutput], ctx: &str) {
    assert_eq!(sig.len(), ine.len());
    for (i, (s, d)) in sig.iter().zip(ine).enumerate() {
        match (s, d) {
            (QueryOutput::Range(a), QueryOutput::Range(b)) => {
                let mut a = a.clone();
                a.sort_unstable();
                assert_eq!(&a, b, "{ctx}: range query {i}");
            }
            (QueryOutput::Knn(a), QueryOutput::Knn(b)) => {
                assert_knn_equivalent(a, b, &format!("{ctx}: knn query {i}"));
            }
            (QueryOutput::Aggregate(a), QueryOutput::Aggregate(b)) => {
                assert_eq!(a, b, "{ctx}: aggregate query {i}");
            }
            (QueryOutput::Join(a), QueryOutput::Join(b)) => {
                let mut a = a.clone();
                a.sort_unstable();
                assert_eq!(&a, b, "{ctx}: join query {i}");
            }
            (s, d) => panic!("{ctx}: query {i} class mismatch {s:?} vs {d:?}"),
        }
    }
}

#[test]
fn four_workers_match_serial_exactly() {
    let serial = build_service(7);
    let parallel = build_service(7);
    let batch = mixed_batch(&serial, 250, 99);

    let r1 = serial.serve_batch(&batch, 1);
    let r4 = parallel.serve_batch(&batch, 4);

    assert_eq!(r1.outputs.len(), batch.len());
    for (i, (a, b)) in r1.outputs.iter().zip(&r4.outputs).enumerate() {
        assert_eq!(a, b, "query {i} ({:?}) diverged under 4 workers", batch[i]);
    }
    // Logical page accesses and operation counters are schedule-independent
    // (routing is deterministic, charges precede all caching); faults and
    // cache hit/miss splits are not — replacement within a shard follows the
    // interleaved access order — so the cache counters are zeroed before the
    // exact comparison.
    assert_eq!(r1.io.logical, r4.io.logical, "merged logical page accesses");
    let scrub = |mut ops: OpStats| {
        ops.decode_cache_hits = 0;
        ops.decode_cache_misses = 0;
        ops.entry_cache_hits = 0;
        ops.entry_cache_misses = 0;
        ops
    };
    assert_eq!(scrub(r1.ops), scrub(r4.ops), "merged operation counters");
    assert!(r1.io.logical > 0, "batch charged no page accesses");
    // No maintenance ran: the epoch counters must not move in a pure-read
    // batch, serial or parallel.
    assert_eq!((r1.ops.epoch_swaps, r1.ops.stale_epoch_reads), (0, 0));
    assert_eq!((r4.ops.epoch_swaps, r4.ops.stale_epoch_reads), (0, 0));
}

#[test]
fn signature_and_dijkstra_backends_agree() {
    let service = build_service(11);
    let batch = mixed_batch(&service, 120, 5);

    let sig = service.serve_batch_on(Backend::Signature, &batch, 2);
    let ine = service.serve_batch_on(Backend::Dijkstra, &batch, 2);
    assert_backends_agree(&sig.outputs, &ine.outputs, "fresh index");
}

#[test]
fn signature_ine_and_label_backends_agree_element_wise() {
    let service = build_service(19);
    let batch = mixed_batch(&service, 150, 5);

    let sig = service.serve_batch_on(Backend::Signature, &batch, 2);
    let ine = service.serve_batch_on(Backend::Dijkstra, &batch, 2);
    let hl = service.serve_batch_on(Backend::HubLabel, &batch, 2);
    assert_eq!(
        (sig.backend, ine.backend, hl.backend),
        ("signature", "ine", "hl")
    );

    // INE and the hub labels both emit canonical orderings (id-sorted
    // ranges, `(dist, object)`-sorted kNN, sorted join pairs): strictly
    // equal outputs, including at kNN distance ties.
    assert_eq!(hl.outputs.len(), ine.outputs.len());
    for (i, (a, b)) in hl.outputs.iter().zip(&ine.outputs).enumerate() {
        assert_eq!(a, b, "query {i} ({:?}): hl vs ine", batch[i]);
    }
    // The hub-label batch did its work through label scans and merges, and
    // those were charged to the batch's counters: one bucket scan per kNN
    // query and per join source object, one merge per object per range /
    // aggregate query.
    let knns = batch
        .iter()
        .filter(|q| matches!(q, Query::Knn { .. }))
        .count();
    assert_eq!(
        hl.ops.label_lookups as usize,
        knns + (batch.len() - knns) * service.objects().len(),
        "hl batch label lookups"
    );
    assert!(
        hl.ops.label_entries_scanned >= hl.ops.label_lookups,
        "entry accounting below one entry per lookup"
    );
    // The signature path may legitimately keep a different tied kNN object:
    // tie-aware comparison against both.
    assert_backends_agree(&sig.outputs, &ine.outputs, "signature vs ine");
    assert_backends_agree(&sig.outputs, &hl.outputs, "signature vs hl");
}

/// The bound doing its job, as an exact host-independent count: a loop of
/// per-object merges advances over roughly `|objects| × avg_label_len`
/// entries per point query; a kNN query on the bucketed oracle — probe of
/// the bucket heads plus the bounded scan — must walk under half of that
/// even on this 15-object fixture, where `k ≤ 5` is a third of the set.
#[test]
fn knn_queries_walk_a_fraction_of_the_object_labels() {
    let service = build_service(37);
    let net = service.net();
    let batch = generate(
        &net,
        &WorkloadConfig {
            mix: WorkloadMix {
                range: 0,
                knn: 1,
                aggregate: 0,
                join: 0,
            },
            k_range: (1, 5),
            count: 200,
            seed: 3,
            ..Default::default()
        },
    );
    let hl = service.serve_batch_on(Backend::HubLabel, &batch, 1);
    let ine = service.serve_batch_on(Backend::Dijkstra, &batch, 1);
    assert_eq!(hl.outputs, ine.outputs);
    assert_eq!(hl.ops.label_lookups, batch.len() as u64, "one per query");
    let ep = service.snapshot();
    let per_object_loop =
        ep.objects().len() as f64 * ep.hub_labels().expect("labels on").avg_label_len();
    let per_query = hl.ops.label_entries_scanned as f64 / batch.len() as f64;
    assert!(
        per_query < per_object_loop / 2.0,
        "{per_query:.1} entries per kNN query vs {per_object_loop:.1} for a per-object loop"
    );
}

#[test]
fn label_backend_serial_matches_parallel() {
    let service = build_service(13);
    let batch = mixed_batch(&service, 200, 21);

    let r1 = service.serve_batch_on(Backend::HubLabel, &batch, 1);
    let r4 = service.serve_batch_on(Backend::HubLabel, &batch, 4);
    assert_eq!(r1.outputs.len(), batch.len());
    for (i, (a, b)) in r1.outputs.iter().zip(&r4.outputs).enumerate() {
        assert_eq!(a, b, "query {i} ({:?}) diverged under 4 workers", batch[i]);
    }
}

#[test]
fn epoch_update_between_batches_is_visible() {
    let service = build_service(23);
    let batch = mixed_batch(&service, 150, 17);

    // Warm every shard's decode cache so stale decodes *would* be served if
    // the epoch invalidation were missing.
    let before = service.serve_batch(&batch, 4);
    assert_eq!(service.epoch(), 0);

    // Lengthen edges on the shortest-path fabric until some query's result
    // actually changes: make the first object's host expensive to reach.
    let host = service.objects().iter().next().expect("objects exist").1;
    let updates: Vec<_> = service
        .net()
        .neighbors(host)
        .map(|(_, b, w)| (host, b, w + 5_000))
        .collect();
    assert!(!updates.is_empty());
    let reports = service.apply_updates(&updates);
    assert_eq!(service.epoch(), 1);
    assert_eq!(
        service.epoch_swap_count(),
        1,
        "one update batch = one published epoch"
    );
    assert!(
        reports.iter().any(|r| r.entries_changed > 0),
        "update changed no signature entries — test network too forgiving"
    );

    let after = service.serve_batch(&batch, 4);
    assert_ne!(
        before.outputs, after.outputs,
        "a 5000-unit detour around an object's host must change some result"
    );
    // The swap happened *between* batches, so the post-update batch saw no
    // in-flight maintenance and no superseded snapshot.
    assert_eq!((after.ops.epoch_swaps, after.ops.stale_epoch_reads), (0, 0));

    // Ground truth: the Dijkstra backend reads the (updated) network
    // directly and shares no caches with the signature path. If any shard
    // had served stale decodes, the signature outputs would diverge.
    let truth = service.serve_batch_on(Backend::Dijkstra, &batch, 4);
    assert_backends_agree(&after.outputs, &truth.outputs, "post-update");

    // The hierarchy was repaired by the same maintenance call and the hub
    // labels re-extracted from it; stale labels would resurrect pre-update
    // distances.
    let hl_truth = service.serve_batch_on(Backend::HubLabel, &batch, 4);
    assert_eq!(
        hl_truth.outputs, truth.outputs,
        "hub labels diverged from INE post-update"
    );
}

#[test]
fn sharded_backend_agrees_and_maintenance_rebuilds_partitions() {
    let mut rng = StdRng::seed_from_u64(29);
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
        &ServiceConfig {
            shards: 8,
            pool_pages: 128,
            partitions: 3,
            ..Default::default()
        },
    );
    assert_eq!(service.num_partitions(), 3);
    let batch = mixed_batch(&service, 150, 5);

    // The router emits the same canonical orderings as INE (id-sorted
    // ranges, `(dist, object)`-sorted kNN with the deterministic tie cut,
    // sorted join pairs): strict equality, not just tie-aware.
    let ine = service.serve_batch_on(Backend::Dijkstra, &batch, 2);
    let sh = service.serve_batch_on(Backend::Sharded, &batch, 2);
    assert_eq!(sh.backend, "sharded");
    for (i, (a, b)) in sh.outputs.iter().zip(&ine.outputs).enumerate() {
        assert_eq!(a, b, "query {i} ({:?}): sharded vs ine", batch[i]);
    }
    // Tie-aware against the single signature index too.
    let sig = service.serve_batch_on(Backend::Signature, &batch, 2);
    assert_backends_agree(&sh.outputs, &sig.outputs, "sharded vs signature");

    // Per-partition accounting: every partition served something under the
    // Zipf mix, and cross-partition stitching actually glued through the
    // boundary hub labels.
    assert_eq!(sh.per_part.len(), 3);
    assert!(
        sh.per_part.iter().all(|p| p.queries > 0),
        "a partition served no queries: {:?}",
        sh.per_part
    );
    assert!(
        sh.per_part.iter().map(|p| p.label_lookups).sum::<u64>() > 0,
        "no boundary label was ever read"
    );
    let point_queries = batch
        .iter()
        .filter(|q| !matches!(q, Query::Join { .. }))
        .count() as u64;
    assert_eq!(
        sh.per_part.iter().map(|p| p.queries).sum::<u64>(),
        point_queries,
        "each point query visits its home partition; a join runs on the single index"
    );

    // Maintenance rebuilds the partitioned indexes along with the
    // hierarchy: post-update sharded answers must match post-update INE.
    let host = service.objects().iter().next().expect("objects exist").1;
    let updates: Vec<_> = service
        .net()
        .neighbors(host)
        .map(|(_, b, w)| (host, b, w + 5_000))
        .collect();
    service.apply_updates(&updates);
    let truth = service.serve_batch_on(Backend::Dijkstra, &batch, 4);
    let after = service.serve_batch_on(Backend::Sharded, &batch, 4);
    for (i, (a, b)) in after.outputs.iter().zip(&truth.outputs).enumerate() {
        assert_eq!(
            a, b,
            "query {i} ({:?}): sharded stale post-update",
            batch[i]
        );
    }
}
