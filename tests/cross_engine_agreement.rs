//! Cross-crate integration: every engine (signature, full, NVD, INE, IER,
//! and the contraction-hierarchy oracle) must return identical answers on
//! identical workloads — distances are exact in all of them, so agreement
//! is bitwise, not approximate.

use distance_signature::baselines::{FullIndex, Ier, Ine, NvdIndex};
use distance_signature::graph::generate::{random_planar, PlanarConfig};
use distance_signature::graph::{Dist, NodeId, ObjectId, ObjectSet, RoadNetwork};
use distance_signature::hierarchy::{ChConfig, ContractionHierarchy};
use distance_signature::service::{generate, Backend, QueryOutput, QueryService, ServiceConfig};
use distance_signature::service::{Skew, WorkloadConfig};
use distance_signature::signature::query::knn::{knn, KnnType};
use distance_signature::signature::query::range::range_query;
use distance_signature::signature::{SignatureConfig, SignatureIndex};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fixture(seed: u64, nodes: usize, density: f64) -> (RoadNetwork, ObjectSet) {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = random_planar(
        &PlanarConfig {
            num_nodes: nodes,
            mean_degree: 4.0,
            max_weight: 10,
        },
        &mut rng,
    );
    let objects = ObjectSet::uniform(&net, density, &mut rng);
    (net, objects)
}

#[test]
fn all_engines_agree_on_range_queries() {
    let (net, objects) = fixture(1001, 600, 0.03);
    let sig = SignatureIndex::build(&net, &objects, &SignatureConfig::default());
    let mut sess = sig.session(&net);
    let mut full = FullIndex::build(&net, &objects, 32, true);
    let ch = ContractionHierarchy::build(&net, &ChConfig::default());
    let mut full_ch = FullIndex::build_with_hierarchy(&net, &objects, 32, &ch);
    let mut nvd = NvdIndex::build(&net, &objects, 32);
    let mut ine = Ine::new(&net, 32);

    for q in net.nodes().step_by(61) {
        for eps in [0u32, 7, 45, 200, 2000] {
            let a = range_query(&mut sess, q, eps);
            let b = full.range(q, eps);
            let b2 = full_ch.range(q, eps);
            let c = nvd.range(&net, q, eps);
            let d = ine.range(&net, &objects, q, eps);
            assert_eq!(a, b, "signature vs full at {q}, eps {eps}");
            assert_eq!(a, b2, "signature vs CH-built full at {q}, eps {eps}");
            assert_eq!(a, c, "signature vs NVD at {q}, eps {eps}");
            assert_eq!(a, d, "signature vs INE at {q}, eps {eps}");
        }
    }
}

#[test]
fn all_engines_agree_on_knn_distances() {
    let (net, objects) = fixture(1003, 500, 0.04);
    let sig = SignatureIndex::build(&net, &objects, &SignatureConfig::default());
    let mut sess = sig.session(&net);
    let mut full = FullIndex::build(&net, &objects, 32, true);
    let mut nvd = NvdIndex::build(&net, &objects, 32);
    let mut ine = Ine::new(&net, 32);
    let mut ier = Ier::new(&net, &objects, 32);

    for q in net.nodes().step_by(47) {
        for k in [1usize, 3, 8] {
            let dists =
                |v: Vec<(ObjectId, Dist)>| v.into_iter().map(|(_, d)| d).collect::<Vec<_>>();
            let a: Vec<Dist> = knn(&mut sess, q, k, KnnType::Type1)
                .into_iter()
                .map(|r| r.dist.unwrap())
                .collect();
            assert_eq!(a, dists(full.knn(q, k)), "full at {q} k={k}");
            assert_eq!(a, dists(nvd.knn(&net, q, k)), "nvd at {q} k={k}");
            assert_eq!(a, dists(ine.knn(&net, &objects, q, k)), "ine at {q} k={k}");
            assert_eq!(a, dists(ier.knn(&net, &objects, q, k)), "ier at {q} k={k}");
        }
    }
}

#[test]
fn clustered_datasets_are_handled_by_every_engine() {
    let mut rng = StdRng::seed_from_u64(1007);
    let net = random_planar(
        &PlanarConfig {
            num_nodes: 500,
            ..Default::default()
        },
        &mut rng,
    );
    let objects = ObjectSet::clustered(&net, 0.04, 4, &mut rng);
    let sig = SignatureIndex::build(&net, &objects, &SignatureConfig::default());
    let mut sess = sig.session(&net);
    let mut full = FullIndex::build(&net, &objects, 32, true);
    let mut nvd = NvdIndex::build(&net, &objects, 32);

    for q in net.nodes().step_by(83) {
        let a: Vec<Dist> = knn(&mut sess, q, 5, KnnType::Type1)
            .into_iter()
            .map(|r| r.dist.unwrap())
            .collect();
        let b: Vec<Dist> = full.knn(q, 5).into_iter().map(|(_, d)| d).collect();
        let c: Vec<Dist> = nvd.knn(&net, q, 5).into_iter().map(|(_, d)| d).collect();
        assert_eq!(a, b);
        assert_eq!(a, c);
    }
}

#[test]
fn uncompressed_and_compressed_indexes_answer_identically() {
    let (net, objects) = fixture(1009, 400, 0.05);
    let on = SignatureIndex::build(&net, &objects, &SignatureConfig::default());
    let off = SignatureIndex::build(
        &net,
        &objects,
        &SignatureConfig {
            compress: false,
            ..Default::default()
        },
    );
    let mut s_on = on.session(&net);
    let mut s_off = off.session(&net);
    for q in net.nodes().step_by(29) {
        assert_eq!(
            range_query(&mut s_on, q, 60),
            range_query(&mut s_off, q, 60)
        );
        let a: Vec<_> = knn(&mut s_on, q, 4, KnnType::Type1)
            .into_iter()
            .map(|r| r.dist)
            .collect();
        let b: Vec<_> = knn(&mut s_off, q, 4, KnnType::Type1)
            .into_iter()
            .map(|r| r.dist)
            .collect();
        assert_eq!(a, b);
    }
    // Compression must actually shrink the payload.
    assert!(
        on.report.compressed_bits
            < off.report.encoded_bits + (on.num_nodes() * on.num_objects()) as u64
    );
}

/// Tie-aware comparison of one signature output against a canonical
/// backend's: kNN answers are unique only up to ties at the k-th distance
/// (both sort by `(dist, object)`, but the signature path may keep a
/// different tied object), everything else must be bitwise equal.
fn assert_output_agrees(s: &QueryOutput, canon: &QueryOutput, ctx: &str) {
    match (s, canon) {
        (QueryOutput::Knn(a), QueryOutput::Knn(b)) => {
            let dists = |rs: &[distance_signature::signature::KnnResult]| {
                rs.iter().map(|r| r.dist).collect::<Vec<_>>()
            };
            assert_eq!(dists(a), dists(b), "{ctx}: kNN distance profile");
            let kth = a.last().and_then(|r| r.dist);
            let strict = |rs: &[distance_signature::signature::KnnResult]| {
                rs.iter()
                    .filter(|r| r.dist < kth)
                    .map(|r| r.object)
                    .collect::<Vec<_>>()
            };
            assert_eq!(strict(a), strict(b), "{ctx}: objects below the cut");
        }
        (QueryOutput::Range(a), QueryOutput::Range(b)) => {
            let mut a = a.clone();
            a.sort_unstable();
            assert_eq!(&a, b, "{ctx}: range");
        }
        (a, b) => assert_eq!(a, b, "{ctx}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Three-way element-wise agreement on random planar networks: the
    /// signature index, incremental network expansion, and the hub labels
    /// all serve the same mixed batch through the query service. INE and
    /// the labels both emit canonical orderings and must be strictly equal;
    /// the signature path is compared tie-aware.
    #[test]
    fn three_backends_agree_on_random_networks(
        seed in 0u64..1 << 32,
        nodes in 60usize..180,
        density in 0.03f64..0.10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_planar(
            &PlanarConfig {
                num_nodes: nodes,
                ..Default::default()
            },
            &mut rng,
        );
        let objects = ObjectSet::uniform(&net, density, &mut rng);
        if objects.len() < 2 {
            return; // degenerate draw: nothing to cross-check
        }
        let service = QueryService::new(
            net,
            objects,
            &SignatureConfig::default(),
            &ServiceConfig {
                shards: 4,
                pool_pages: 32,
                ..Default::default()
            },
        );
        let batch = generate(
            &service.net(),
            &WorkloadConfig {
                count: 40,
                seed: seed ^ 0xA5A5,
                skew: Skew::Uniform,
                ..Default::default()
            },
        );

        let sig = service.serve_batch_on(Backend::Signature, &batch, 2);
        let ine = service.serve_batch_on(Backend::Dijkstra, &batch, 2);
        let hl = service.serve_batch_on(Backend::HubLabel, &batch, 2);
        for (i, q) in batch.iter().enumerate() {
            prop_assert_eq!(
                &hl.outputs[i],
                &ine.outputs[i],
                "query {} ({:?}): hl vs ine",
                i,
                q
            );
            assert_output_agrees(
                &sig.outputs[i],
                &ine.outputs[i],
                &format!("query {i} ({q:?}): signature vs canonical"),
            );
        }
    }
}

#[test]
fn nondefault_partition_parameters_stay_correct() {
    let (net, objects) = fixture(1013, 300, 0.05);
    for (c, t) in [(2.0, 5), (4.0, 25), (1.8, 2), (6.0, 10)] {
        let cfg = SignatureConfig {
            c,
            t: Some(t),
            ..Default::default()
        };
        let sig = SignatureIndex::build(&net, &objects, &cfg);
        let mut sess = sig.session(&net);
        let mut full = FullIndex::build(&net, &objects, 32, true);
        for q in net.nodes().step_by(67) {
            let a: Vec<Dist> = knn(&mut sess, q, 3, KnnType::Type1)
                .into_iter()
                .map(|r| r.dist.unwrap())
                .collect();
            let b: Vec<Dist> = full.knn(q, 3).into_iter().map(|(_, d)| d).collect();
            assert_eq!(a, b, "c={c} t={t} at {q}");
        }
    }
    let _ = NodeId(0);
}
