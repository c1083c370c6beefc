//! Every backend of the query service, through `QueryService`, on one
//! fixture: the signature index, the shard router over three partitions,
//! and the two in-memory oracles (Dijkstra, hub labels) answer
//! a mixed batch — with k = 0, k past |objects|, ε = 0, ε = ∞, and joins
//! on both sides of the last category's lower bound and unbounded among its
//! queries — element-wise equal to `Backend::Dijkstra`. A second cell fails
//! every physical read: every query that reads a page then degrades onto
//! the label oracle exactly once, a join below the last category (which
//! reads only the object-pair table) stays on the fast path, and the answers
//! do not move. A third
//! closes every edge of one node: the batch would disconnect the network,
//! so it is refused before it is journaled, and nothing moves. A fourth
//! walks the weight domain's edges: weight 0 and `INFINITY − 1` are refused
//! the same way (and a journal record carrying one makes recovery fail with
//! `InvalidData`), while the largest admissible weight on all of node 14's
//! edges is accepted and served exactly — by labels whose distance column
//! then has to be `u32` wide — before and after a recovery. A fifth
//! configures zero session shards: the service runs one, answers exactly,
//! and its stats dump reports the one it runs.

use distance_signature::graph::generate::{random_planar, PlanarConfig};
use distance_signature::graph::ids::max_weight;
use distance_signature::graph::{Dist, NodeId, ObjectSet, INFINITY};
use distance_signature::service::journal::JOURNAL_FILE;
use distance_signature::service::{
    generate, Backend, EdgeUpdate, Query, QueryOutput, QueryService, ServiceConfig, UpdateJournal,
    WorkloadConfig, WorkloadMix,
};
use distance_signature::signature::{KnnResult, SignatureConfig};
use distance_signature::storage::FaultPlan;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PARTITIONS: usize = 3;

fn service(fault_plan: FaultPlan) -> QueryService {
    service_with(ServiceConfig {
        shards: 4,
        partitions: PARTITIONS,
        fault_plan,
        ..ServiceConfig::default()
    })
}

fn service_with(cfg: ServiceConfig) -> QueryService {
    let mut rng = StdRng::seed_from_u64(1957);
    let net = random_planar(
        &PlanarConfig {
            num_nodes: 300,
            ..Default::default()
        },
        &mut rng,
    );
    let objects = ObjectSet::uniform(&net, 0.05, &mut rng);
    QueryService::new(net, objects, &SignatureConfig::default(), &cfg)
}

/// The lower bound of the signature's last category: a self-join below it
/// reads only the object-pair table, from it on one range per object.
fn last_lb(service: &QueryService) -> Dist {
    service.index().partition().last_lb()
}

/// A generated mix plus the edge cases: k = 0 and k past |objects|, ε = 0
/// and ε = ∞ for range and aggregate, and joins at the last category's
/// lower bound, just below it and at ε = ∞.
fn batch(service: &QueryService) -> Vec<Query> {
    let n = service.objects().len();
    let mut batch = generate(
        &service.net(),
        &WorkloadConfig {
            mix: WorkloadMix {
                join: 2,
                ..Default::default()
            },
            eps_range: (0, 40),
            k_range: (1, n),
            join_eps: 15,
            count: 60,
            seed: 29,
            ..Default::default()
        },
    );
    for node in [0, 97, 211].map(distance_signature::graph::NodeId) {
        for eps in [0, INFINITY] {
            batch.push(Query::Range { node, eps });
            batch.push(Query::Aggregate { node, eps });
        }
        for k in [0, n + 3] {
            batch.push(Query::Knn { node, k });
        }
    }
    let last_lb = last_lb(service);
    for eps in [last_lb - 1, last_lb, INFINITY] {
        batch.push(Query::Join { eps });
    }
    batch
}

/// kNN answers are unique only up to ties at the k-th distance: the
/// distance profiles must match, and the objects strictly below the cut.
fn assert_knn_tie_equal(got: &[KnnResult], want: &[KnnResult], ctx: &str) {
    let dists = |rs: &[KnnResult]| rs.iter().map(|r| r.dist).collect::<Vec<_>>();
    assert_eq!(dists(got), dists(want), "{ctx}: distance profile");
    let kth = want.last().and_then(|r| r.dist);
    let below = |rs: &[KnnResult]| {
        let mut os: Vec<_> = rs
            .iter()
            .filter(|r| r.dist < kth)
            .map(|r| r.object)
            .collect();
        os.sort_unstable();
        os
    };
    assert_eq!(below(got), below(want), "{ctx}: objects below the cut");
}

#[test]
fn every_backend_answers_like_dijkstra() {
    let service = service(FaultPlan::none());
    assert_eq!(service.num_partitions(), PARTITIONS);
    assert_backends_answer_like_dijkstra(&service, &batch(&service), "");
    assert_eq!(service.hierarchy_fallback_count(), 0);
}

#[test]
fn a_zero_shard_config_runs_one_shard_and_reports_it() {
    let service = service_with(ServiceConfig {
        shards: 0,
        ..ServiceConfig::default()
    });
    assert_backends_answer_like_dijkstra(&service, &batch(&service), "shards 0, ");
    let dump = service.stats_dump();
    assert!(dump.starts_with("epoch 0 | 1 shards | "), "{dump}");
}

/// Every other backend of `service` — signature, sharded and hub labels —
/// against `Backend::Dijkstra` on `batch`, tie-tolerant at the
/// kNN cut for the paged ones.
fn assert_backends_answer_like_dijkstra(service: &QueryService, batch: &[Query], when: &str) {
    let truth = service.serve_batch_on(Backend::Dijkstra, batch, 2);
    for backend in [Backend::Signature, Backend::Sharded, Backend::HubLabel] {
        let got = service.serve_batch_on(backend, batch, 2);
        assert_eq!(got.degraded_count() + got.shed, 0, "{when}{backend:?}");
        let paged = matches!(backend, Backend::Signature | Backend::Sharded);
        for (i, (a, b)) in got.outputs.iter().zip(&truth.outputs).enumerate() {
            let ctx = format!("{when}{backend:?}, query {i} ({:?})", batch[i]);
            match (a, b) {
                (QueryOutput::Knn(a), QueryOutput::Knn(b)) if paged => {
                    assert_knn_tie_equal(a, b, &ctx)
                }
                _ => assert_eq!(a, b, "{ctx}"),
            }
        }
    }
}

#[test]
fn every_query_degrades_onto_the_labels_and_is_counted_once() {
    let clean = service(FaultPlan::none());
    let faulty = service(FaultPlan::failures(7, 1.0, 0.0));
    let batch = batch(&clean);
    let truth = clean.serve_batch_on(Backend::Dijkstra, &batch, 2);
    let got = faulty.serve_batch_on(Backend::Sharded, &batch, 2);

    // A join below the last category reads no page, so no fault can reach
    // it: it stays on the fast path. Every other query reads pages and
    // degrades.
    let last_lb = last_lb(&clean);
    let reads_pages = |q: &Query| !matches!(*q, Query::Join { eps } if eps < last_lb);
    let paged = batch.iter().filter(|q| reads_pages(q)).count();
    assert!(paged < batch.len(), "the batch holds no table join");
    assert!(
        batch
            .iter()
            .any(|q| matches!(*q, Query::Join { eps } if eps >= last_lb)),
        "the batch holds no page-reading join"
    );
    for (i, (a, b)) in got.outputs.iter().zip(&truth.outputs).enumerate() {
        let q = &batch[i];
        assert_eq!(a, b, "query {i} ({q:?})");
        assert_eq!(got.degraded[i], reads_pages(q), "query {i} ({q:?})");
    }
    // Each degraded query is noted once, joins included: a join runs on
    // the single index, not once per partition.
    assert_eq!(got.ops.degraded, paged as u64);
    assert_eq!(faulty.hierarchy_fallback_count(), paged as u64);
}

#[test]
fn a_batch_that_would_disconnect_the_network_is_refused() {
    for partitions in [1, PARTITIONS] {
        let dir = std::env::temp_dir().join(format!(
            "dsi_disconnect_k{partitions}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServiceConfig {
            shards: 4,
            partitions,
            ..ServiceConfig::default()
        };
        let service = service_with(cfg);
        service.attach_maintenance_log(&dir).unwrap();
        let batch = batch(&service);
        let answers = |s: &QueryService| s.serve_batch_on(Backend::Signature, &batch, 2).outputs;
        let before = answers(&service);

        // Closing all three of node 14's edges strands it.
        let net = service.net();
        let node = NodeId(14);
        let strand: Vec<EdgeUpdate> = net
            .neighbors(node)
            .map(|(_, b, _)| (node, b, INFINITY))
            .collect();
        assert_eq!(strand.len(), 3, "the fixture's node 14 has three edges");
        let err = service.try_apply_updates(&strand).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert_eq!(service.epoch(), 0);
        assert_eq!(service.journal_len(), Some(0), "the batch was journaled");
        assert_eq!(answers(&service), before);
        assert_backends_answer_like_dijkstra(&service, &batch, "after the refusal: ");
        drop(service);
        let (service, report) =
            QueryService::recover(&dir, &SignatureConfig::default(), &cfg).unwrap();
        assert_eq!((report.epoch, report.journal_records), (0, 0));
        assert_eq!(answers(&service), before, "K = {partitions}: recovered");

        // Closing one of them leaves node 14 two ways out: accepted, exact.
        let (a, b, _) = strand[0];
        service.try_apply_updates(&[(a, b, INFINITY)]).unwrap();
        assert_eq!(service.epoch(), 1);
        assert_backends_answer_like_dijkstra(&service, &batch, "one edge closed: ");
        let after = answers(&service);
        drop(service);
        let (service, report) =
            QueryService::recover(&dir, &SignatureConfig::default(), &cfg).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(answers(&service), after, "K = {partitions}: recovered");
        assert_backends_answer_like_dijkstra(&service, &batch, "recovered: ");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn weights_outside_the_domain_are_refused_and_the_widest_is_served() {
    for partitions in [1, PARTITIONS] {
        let dir = std::env::temp_dir().join(format!(
            "dsi_weight_domain_k{partitions}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServiceConfig {
            shards: 4,
            partitions,
            ..ServiceConfig::default()
        };
        let service = service_with(cfg);
        service.attach_maintenance_log(&dir).unwrap();
        let batch = batch(&service);
        let node = NodeId(14);
        let net = service.net();
        let edges: Vec<NodeId> = net.neighbors(node).map(|(_, b, _)| b).collect();
        assert_eq!(edges.len(), 3, "the fixture's node 14 has three edges");
        let top = max_weight(net.num_nodes());

        // Weight 0 and INFINITY - 1: refused before the journal, nothing moves.
        for w in [0, INFINITY - 1, top + 1] {
            let err = service
                .try_apply_updates(&[(node, edges[0], w)])
                .unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "weight {w}");
            assert_eq!(service.epoch(), 0, "weight {w}");
            assert_eq!(service.journal_len(), Some(0), "weight {w} was journaled");
            assert_backends_answer_like_dijkstra(&service, &batch, &format!("after {w}: "));
        }

        // The largest admissible weight on all three edges: accepted, exact.
        let widest: Vec<EdgeUpdate> = edges.iter().map(|&b| (node, b, top)).collect();
        service.try_apply_updates(&widest).unwrap();
        assert_eq!(service.epoch(), 1);
        let wide_labels = |s: &QueryService, when: &str| {
            let ep = s.snapshot();
            let hl = ep.hub_labels().unwrap();
            // Node 14's label distances exceed 65,535: 2-byte hubs, 4-byte
            // distances.
            assert_eq!(
                hl.label_bytes(),
                4 * (hl.num_nodes() + 1) + 6 * hl.num_entries(),
                "K = {partitions}, {when}: label columns"
            );
        };
        wide_labels(&service, "published");
        assert_backends_answer_like_dijkstra(&service, &batch, "widest weights: ");
        let after = service.serve_batch_on(Backend::Dijkstra, &batch, 2).outputs;
        drop(service);
        let (service, report) =
            QueryService::recover(&dir, &SignatureConfig::default(), &cfg).unwrap();
        assert_eq!(report.epoch, 1);
        wide_labels(&service, "recovered");
        let recovered = service.serve_batch_on(Backend::Dijkstra, &batch, 2).outputs;
        assert_eq!(recovered, after, "K = {partitions}: recovered");
        assert_backends_answer_like_dijkstra(&service, &batch, "recovered: ");
        drop(service);

        // A record the service would have refused, found in the log: the
        // log is damaged, and recovery says so instead of replaying it.
        let (mut wal, _) = UpdateJournal::open(dir.join(JOURNAL_FILE)).unwrap();
        wal.append(&[(node, edges[1], 0)]).unwrap();
        drop(wal);
        let err = QueryService::recover(&dir, &SignatureConfig::default(), &cfg)
            .err()
            .expect("a weight-0 record recovered");
        match err {
            distance_signature::graph::io::LoadError::Io(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}")
            }
            other => panic!("K = {partitions}: {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
