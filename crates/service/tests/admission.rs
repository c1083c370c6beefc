//! SLO-aware admission control: under a storage latency storm, queries
//! whose estimated completion time blows the deadline are shed onto the
//! exact in-memory fallback — answers stay exact (shedding is a *routing*
//! decision, never an approximation), shed queries are not tagged as
//! fault-degraded, and with no deadline configured the admission path is
//! completely inert.

use std::time::Duration;

use dsi_graph::generate::{random_planar, PlanarConfig};
use dsi_graph::ObjectSet;
use dsi_service::{
    generate, Backend, QueryOutput, QueryService, ServiceConfig, Skew, StoreMode, WorkloadConfig,
};
use dsi_signature::{KnnResult, SignatureConfig};
use dsi_storage::FaultPlan;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A file-backed service under a deterministic latency storm: every
/// physical read stalls for `spike` before succeeding. The tiny pool keeps
/// the fast path hitting the disk, so fast-path latencies train the
/// admission estimator quickly.
fn build(deadline_us: u64, spike: Duration) -> QueryService {
    let mut rng = StdRng::seed_from_u64(31);
    let net = random_planar(
        &PlanarConfig {
            num_nodes: 300,
            ..Default::default()
        },
        &mut rng,
    );
    let objects = ObjectSet::uniform(&net, 0.05, &mut rng);
    QueryService::new(
        net,
        objects,
        &SignatureConfig::default(),
        &ServiceConfig {
            shards: 8,
            pool_pages: 4,
            store: StoreMode::File,
            deadline_us,
            fault_plan: FaultPlan {
                seed: 7,
                spike: 1.0,
                spike_delay: spike,
                ..FaultPlan::none()
            },
            ..Default::default()
        },
    )
}

/// The no-deadline, no-fault reference the stormed service must agree with.
fn reference() -> QueryService {
    let mut rng = StdRng::seed_from_u64(31);
    let net = random_planar(
        &PlanarConfig {
            num_nodes: 300,
            ..Default::default()
        },
        &mut rng,
    );
    let objects = ObjectSet::uniform(&net, 0.05, &mut rng);
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

/// Tie-aware kNN comparison: the shed path answers via the hierarchy
/// oracle, which may legitimately keep a different object tied at the k-th
/// distance than the signature path would.
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

fn assert_exact(got: &[QueryOutput], want: &[QueryOutput], ctx: &str) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        match (g, w) {
            (QueryOutput::Knn(a), QueryOutput::Knn(b)) => {
                assert_knn_equivalent(a, b, &format!("{ctx}: knn query {i}"));
            }
            (QueryOutput::Range(a), QueryOutput::Range(b)) => {
                let (mut a, mut b) = (a.clone(), b.clone());
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "{ctx}: range query {i}");
            }
            (QueryOutput::Join(a), QueryOutput::Join(b)) => {
                let (mut a, mut b) = (a.clone(), b.clone());
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "{ctx}: join query {i}");
            }
            (g, w) => assert_eq!(g, w, "{ctx}: query {i}"),
        }
    }
}

#[test]
fn latency_storm_sheds_but_stays_exact() {
    let stormed = build(200, Duration::from_micros(300));
    let truth = reference();
    let batch = generate(
        &stormed.net(),
        &WorkloadConfig {
            count: 200,
            seed: 47,
            skew: Skew::Zipf { theta: 0.8 },
            ..Default::default()
        },
    );

    // One worker on the counted side: how many queries shed depends on the
    // queue behind each and on which completions trained the estimator
    // first, and more workers interleave both.
    let got = stormed.serve_batch_on(Backend::Signature, &batch, 1);
    let want = truth.serve_batch_on(Backend::Signature, &batch, 2);
    assert_exact(&got.outputs, &want.outputs, "stormed vs reference");

    // Every physical read sleeps 300µs against a 200µs deadline: once one
    // fast-path completion per class has trained the estimator, everything
    // behind it sheds.
    assert!(
        got.shed > batch.len() / 2,
        "storm shed only {} of {} queries",
        got.shed,
        batch.len()
    );
    assert!(got.shed < batch.len(), "cold estimator must admit first");
    assert_eq!(got.shed, stormed.shed_count() as usize);
    // The cold-admitted queries paid the storm and blew the deadline.
    assert!(
        got.deadline_misses > 0,
        "no admitted query missed a 200µs deadline under a 300µs-per-read storm"
    );
    assert_eq!(got.deadline_ns, 200_000);
    // Shedding is not degradation: answers are exact and no fault fired.
    assert!(
        !got.degraded.iter().any(|&d| d),
        "spike-only storm must not degrade any query"
    );
    assert_eq!(got.ops.degraded, 0);
    assert!(got.io.spikes > 0, "the storm never hit a physical read");

    let summary = got.summary();
    assert!(
        summary.contains("admission:"),
        "summary lacks the admission line:\n{summary}"
    );
    assert!(stormed.stats_dump().contains("admission:"));
    let parallel = stormed.serve_batch_on(Backend::Signature, &batch, 2);
    assert_exact(&parallel.outputs, &want.outputs, "stormed on 2 workers");
}

#[test]
fn zero_deadline_disables_admission_control() {
    let stormed = build(0, Duration::from_micros(100));
    let batch = generate(
        &stormed.net(),
        &WorkloadConfig {
            count: 100,
            seed: 47,
            skew: Skew::Zipf { theta: 0.8 },
            ..Default::default()
        },
    );
    let got = stormed.serve_batch_on(Backend::Signature, &batch, 2);
    assert_eq!(got.shed, 0, "no deadline, nothing to shed against");
    assert_eq!(got.deadline_misses, 0, "no deadline, no misses counted");
    assert_eq!(stormed.shed_count(), 0);
    assert_eq!(stormed.deadline_miss_count(), 0);
    assert!(
        !got.summary().contains("admission:"),
        "admission line printed without a deadline"
    );
}
