//! Fault-injection equivalence: under a deterministic storage fault plan
//! the service must keep producing exactly the fault-free answers. Failed
//! fast paths are retried; past the retry budget the query is answered
//! exactly by the epoch's in-memory label oracle and tagged degraded: the
//! *answers* never change, only the counters do.
//!
//! The fault seed honours `DSI_FAULT_SEED` so CI can re-run the suite
//! under a matrix of fixed seeds; `DSI_MAINT=double-buffer` scales up the concurrent-maintenance-under-
//! faults cell; and `DSI_BACKEND=hl` replays every served batch on the
//! memory-resident hub-label backend and asserts it agrees with the paged
//! answers (see `scripts/ci.sh`).

use dsi_graph::generate::{random_planar, PlanarConfig};
use dsi_graph::{sssp, ObjectSet};
use dsi_service::{
    generate, Backend, Query, QueryOutput, QueryService, ServiceConfig, Skew, WorkloadConfig,
};
use dsi_signature::{KnnResult, SignatureConfig};
use dsi_storage::{FaultPlan, StoreMode};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fault_seed() -> u64 {
    std::env::var("DSI_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xFA01)
}

fn partitions() -> usize {
    std::env::var("DSI_PARTITIONS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// `DSI_STORE` (`mem`/`file`/`mmap`) picks the physical page store, so the
/// CI matrix re-runs the whole fault ladder against real checksummed files
/// — injected faults fire on the same deterministic schedule either way.
fn store_mode() -> StoreMode {
    std::env::var("DSI_STORE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(StoreMode::Mem)
}

/// `DSI_READAHEAD` adds batched prefetch to the matrix (0 = off).
fn readahead() -> u32 {
    std::env::var("DSI_READAHEAD")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// `DSI_BACKEND=hl` arms the hub-label replay in [`serve`].
fn hl_crosscheck() -> bool {
    std::env::var("DSI_BACKEND").is_ok_and(|s| s == "hl")
}

/// kNN answers are unique only up to ties at the k-th distance (see
/// `equivalence.rs`): distance profiles must match exactly, object sets
/// strictly below the k-th distance.
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

/// Serve on the backend the configuration implies: the shard router when
/// the service holds partitioned indexes, else the plain signature path —
/// so the `DSI_PARTITIONS` matrix axis exercises the router end to end.
///
/// Under `DSI_BACKEND=hl` the same batch is replayed on the hub-label
/// backend, which never touches the page store and so never sees a fault:
/// its answers are the fault-free truth the paged run must reproduce.
/// The comparison is tie-aware at kNN cuts (the signature path may keep a
/// different tied object) and skipped when maintenance published an epoch
/// between the two runs — the replay would be answering a newer state.
fn serve(service: &QueryService, batch: &[Query], workers: usize) -> dsi_service::BatchReport {
    let backend = if service.num_partitions() > 1 {
        Backend::Sharded
    } else {
        Backend::Signature
    };
    let epoch_before = service.epoch();
    let report = service.serve_batch_on(backend, batch, workers);
    if hl_crosscheck() {
        let hl = service.serve_batch_on(Backend::HubLabel, batch, workers);
        if service.epoch() == epoch_before {
            assert!(hl.ops.label_lookups > 0, "hl replay read no labels");
            assert_eq!(report.outputs.len(), hl.outputs.len());
            for (i, (a, b)) in report.outputs.iter().zip(&hl.outputs).enumerate() {
                let ctx = format!("query {i} ({:?}): {} vs hl", batch[i], report.backend);
                match (a, b) {
                    (QueryOutput::Range(a), QueryOutput::Range(b)) => {
                        let (mut a, mut b) = (a.clone(), b.clone());
                        a.sort_unstable();
                        b.sort_unstable();
                        assert_eq!(a, b, "{ctx}: range members");
                    }
                    (QueryOutput::Knn(a), QueryOutput::Knn(b)) => {
                        assert_knn_equivalent(a, b, &ctx);
                    }
                    _ => assert_eq!(a, b, "{ctx}"),
                }
            }
        }
    }
    report
}

/// A deterministic 300-node service. `pool_pages` is kept *below* the
/// index's working set on purpose: faults fire only on physical reads, and
/// an LRU pool smaller than the page set thrashs, keeping the miss (and
/// therefore fault) stream busy. `retry_budget: 1` makes degradation
/// reachable without a pathological fault rate.
fn build(plan: FaultPlan) -> QueryService {
    let mut rng = StdRng::seed_from_u64(7);
    let net = random_planar(
        &PlanarConfig {
            // Scale with the partition axis so each *region's* index keeps
            // a working set larger than the 2-page pool: on a fixed-size
            // network a K-way split shrinks every region to about one page,
            // which caches after a single cold read and starves the fault
            // stream of physical reads to fire on.
            num_nodes: 300 * partitions(),
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
            pool_pages: 2,
            fault_plan: plan,
            retry_budget: 1,
            partitions: partitions(),
            store: store_mode(),
            readahead: readahead(),
            ..ServiceConfig::default()
        },
    )
}

fn mixed_batch(service: &QueryService, count: usize) -> Vec<Query> {
    let batch = generate(
        &service.net(),
        &WorkloadConfig {
            count,
            seed: 99,
            skew: Skew::Zipf { theta: 0.8 },
            ..Default::default()
        },
    );
    // A join below the last category reads only the object-pair table, so
    // no fault reaches it: the matrix covers joins only through one that
    // reads pages.
    let last_lb = service.index().partition().last_lb();
    assert!(
        batch
            .iter()
            .any(|q| matches!(*q, Query::Join { eps } if eps >= last_lb)),
        "no join in the mixed batch reads a page (last category from {last_lb})"
    );
    batch
}

/// Element-wise identity between a degraded run and a fault-free run is
/// only guaranteed when no kNN query has a distance tie straddling its
/// k-th cut (both paths sort by `(dist, object)`, but the signature path
/// may legitimately keep a different tied object — see the tie-aware
/// comparison in `equivalence.rs`). Drop exactly those queries from the
/// fixture, using independent Dijkstra ground truth, so the remaining
/// batch admits strict equality.
fn drop_knn_cut_ties(service: &QueryService, batch: Vec<Query>) -> Vec<Query> {
    let kept: Vec<Query> = batch
        .into_iter()
        .filter(|q| {
            let &Query::Knn { node, k } = q else {
                return true;
            };
            let tree = sssp(&service.net(), node);
            let mut dists: Vec<_> = service
                .objects()
                .iter()
                .map(|(_, host)| tree.dist[host.index()])
                .collect();
            dists.sort_unstable();
            k >= dists.len() || dists[k - 1] != dists[k]
        })
        .collect();
    assert!(
        kept.iter().any(|q| matches!(q, Query::Knn { .. })),
        "tie filter removed every kNN query — fixture too degenerate"
    );
    kept
}

#[test]
fn faulty_run_matches_fault_free_element_wise() {
    let clean = build(FaultPlan::none());
    let batch = drop_knn_cut_ties(&clean, mixed_batch(&clean, 1000));
    let want = serve(&clean, &batch, 4);

    // Whether a marginal fault rate pushes some query past its retry budget
    // depends on the exact page-access sequence, which shifts with the
    // matrix axes (fault seed × partitions × store). Escalate
    // until the ladder's top rung actually fires so every cell checks the
    // same end-to-end property, not a rate tuned for one configuration.
    let mut rate = 0.01;
    let (faulty, got) = loop {
        let faulty = build(FaultPlan::failures(fault_seed(), rate, 0.001));
        // One worker: the counts asserted below follow the order each
        // stripe draws from its fault stream, which more workers reorder.
        let got = serve(&faulty, &batch, 1);
        if got.ops.degraded > 0 || rate >= 0.32 {
            break (faulty, got);
        }
        rate *= 2.0;
    };

    assert_eq!(want.outputs.len(), got.outputs.len());
    for (i, (a, b)) in want.outputs.iter().zip(&got.outputs).enumerate() {
        assert_eq!(a, b, "query {i} ({:?}) diverged under faults", batch[i]);
    }

    // The plan actually fired and the ladder was exercised end to end.
    assert!(want.degraded.iter().all(|&d| !d), "fault-free run degraded");
    assert_eq!(want.ops.retries, 0);
    assert!(got.io.injected > 0, "no faults injected — tune rates/pool");
    assert!(got.ops.retries > 0, "no attempt was ever retried");
    assert!(got.ops.degraded > 0, "no query exhausted its retry budget");
    // Every query degrades on one stripe at most — a sharded join runs on
    // the single index — so flags and the merged counter agree.
    let flagged = got.degraded.iter().filter(|&&d| d).count() as u64;
    assert_eq!(
        flagged, got.ops.degraded,
        "per-query degraded flags disagree with the merged counter"
    );
    // Answers hold at any worker count; only the counts need one.
    let parallel = serve(&faulty, &batch, 4);
    assert!(parallel.outputs == want.outputs, "4 workers diverged");
}

#[test]
fn sustained_faults_quarantine_shards_without_changing_answers() {
    let clean = build(FaultPlan::none());
    // Heavy read-fail rate: most attempts that miss the pool fault, so
    // shards rack up consecutive degraded queries and get quarantined.
    let faulty = build(FaultPlan::failures(fault_seed() ^ 0x5EED, 0.35, 0.0));
    let batch = drop_knn_cut_ties(&clean, mixed_batch(&clean, 250));

    let want = serve(&clean, &batch, 4);
    // One worker on the counted side (see `faulty_run_matches_fault_free_element_wise`).
    let got = serve(&faulty, &batch, 1);
    for (i, (a, b)) in want.outputs.iter().zip(&got.outputs).enumerate() {
        assert_eq!(
            a, b,
            "query {i} ({:?}) diverged under heavy faults",
            batch[i]
        );
    }
    assert!(
        faulty.quarantine_count() > 0,
        "sustained degradation never quarantined a shard"
    );
    // Quarantine drops caches but keeps counters: batch deltas stay
    // monotone, so the report's unsigned `after - before` subtraction must
    // not have wrapped (a quarantine that zeroed counters would show up
    // here as a near-u64::MAX delta).
    assert!(got.io.logical < 1 << 40, "io delta wrapped: {:?}", got.io);
    assert!(got.io.faults < 1 << 40, "io delta wrapped: {:?}", got.io);
    assert!(
        got.ops.signature_reads < 1 << 40,
        "ops delta wrapped: {:?}",
        got.ops
    );
    let parallel = serve(&faulty, &batch, 4);
    assert!(parallel.outputs == want.outputs, "4 workers diverged");
}

#[test]
fn degraded_queries_are_answered_by_the_label_oracle() {
    // The ladder past the retry budget: every degraded query is answered by
    // the epoch's memory-resident label oracle, which cannot re-trip the
    // injected storage faults, so the run stays element-wise identical to
    // the fault-free answers. The lifetime counter counts each degraded
    // query once.
    let plan = FaultPlan::failures(fault_seed() ^ 0xC4, 0.05, 0.0);
    let clean = build(FaultPlan::none());
    let faulty = build(plan);
    let batch = drop_knn_cut_ties(&clean, mixed_batch(&clean, 600));

    let want = serve(&clean, &batch, 4);
    // One worker on the counted side (see `faulty_run_matches_fault_free_element_wise`).
    let got = serve(&faulty, &batch, 1);
    for (i, q) in batch.iter().enumerate() {
        assert_eq!(
            want.outputs[i], got.outputs[i],
            "query {i} ({q:?}) diverged on the label rung"
        );
    }
    assert!(got.ops.degraded > 0, "ladder never reached the fallback");
    assert_eq!(
        faulty.hierarchy_fallback_count(),
        got.degraded_count() as u64,
        "every degraded query is answered by the labels, and counted once"
    );
    assert_eq!(clean.hierarchy_fallback_count(), 0);
    let parallel = serve(&faulty, &batch, 4);
    assert!(parallel.outputs == want.outputs, "4 workers diverged");
}

#[test]
fn faults_in_one_partition_quarantine_only_that_shard() {
    // Partition isolation: aim every query at nodes owned by partition 0.
    // Under a heavy fault plan, only partition 0's stripe may degrade and
    // quarantine — the other partitions' sessions are never even resumed,
    // so their per-partition counters stay identically zero.
    let build_k4 = |plan: FaultPlan| {
        let mut rng = StdRng::seed_from_u64(7);
        let net = random_planar(
            &PlanarConfig {
                // ~300 nodes per region, matching the single-index fixture
                // (see `build` on why regions must outgrow the pool).
                num_nodes: 1200,
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
                pool_pages: 2,
                fault_plan: plan,
                retry_budget: 1,
                partitions: 4,
                store: store_mode(),
                readahead: readahead(),
                ..ServiceConfig::default()
            },
        )
    };
    let clean = build_k4(FaultPlan::none());
    assert_eq!(clean.num_partitions(), 4);

    // Point queries only (a join runs on the single index, in no
    // partition), all anchored in partition 0.
    let batch: Vec<Query> = drop_knn_cut_ties(&clean, mixed_batch(&clean, 1000))
        .into_iter()
        .filter(|q| match *q {
            Query::Range { node, .. } | Query::Knn { node, .. } | Query::Aggregate { node, .. } => {
                clean.snapshot().partition_of(node) == Some(0)
            }
            Query::Join { .. } => false,
        })
        .collect();
    assert!(
        batch.len() > 50,
        "too few partition-0 queries: {}",
        batch.len()
    );

    let want = clean.serve_batch_on(Backend::Sharded, &batch, 4);
    // Escalate the fault rate until quarantine actually fires: the small
    // per-region working set means how many physical reads (and thus fault
    // draws) each query makes shifts with the matrix axes.
    let mut rate = 0.2;
    let (faulty, got) = loop {
        let faulty = build_k4(FaultPlan::failures(fault_seed() ^ 0x150, rate, 0.0));
        // One worker on the counted side (see
        // `faulty_run_matches_fault_free_element_wise`).
        let got = faulty.serve_batch_on(Backend::Sharded, &batch, 1);
        if faulty.quarantine_count() > 0 || rate >= 0.9 {
            break (faulty, got);
        }
        rate = (rate * 2.0).min(0.9);
    };
    for (i, (a, b)) in want.outputs.iter().zip(&got.outputs).enumerate() {
        assert_eq!(a, b, "query {i} ({:?}) diverged under faults", batch[i]);
    }
    assert!(got.ops.degraded > 0, "fault plan never degraded a query");
    assert!(
        faulty.quarantine_count() > 0,
        "sustained degradation never quarantined the partition stripe"
    );

    // The blast radius stayed inside partition 0.
    assert_eq!(got.per_part.len(), 4);
    assert_eq!(got.per_part[0].queries, batch.len() as u64);
    for (p, ps) in got.per_part.iter().enumerate().skip(1) {
        assert_eq!(ps.queries, 0, "partition {p} served foreign queries");
        assert_eq!(ps.io.logical, 0, "partition {p} touched its pages");
        assert_eq!(ps.label_lookups, 0, "partition {p} read glue labels");
    }
    let parallel = faulty.serve_batch_on(Backend::Sharded, &batch, 4);
    assert!(parallel.outputs == want.outputs, "4 workers diverged");
}

#[test]
fn the_mixed_batch_runs_both_signature_read_paths() {
    // The request width picks the read path: a narrow lookup decodes one
    // skip-directory run, a request covering ≥ D / K objects the whole
    // signature. This suite's answers are checked on both only if its
    // batch takes both.
    let service = build(FaultPlan::none());
    let batch = mixed_batch(&service, 600);
    let got = serve(&service, &batch, 4);
    assert!(got.ops.entry_reads > 0, "no query took the entry path");
    assert!(got.ops.signature_reads > 0, "no query took the full decode");
}

#[test]
fn concurrent_maintenance_under_faults_stays_exact() {
    // The fault ladder and the double-buffered maintenance path composed:
    // update batches publish epochs *while* a faulty service answers
    // queries. Every concurrent batch must equal the fault-free answers on
    // one of the serialized states S0..Sn — degraded queries included
    // (the label oracle they fall back to is the batch's pinned epoch's, so
    // even a mid-swap degradation stays on one consistent state). The
    // `DSI_MAINT=double-buffer` CI axis re-runs this cell across the fault
    // seed / partition matrix with more reader rounds.
    let deep = std::env::var("DSI_MAINT").is_ok_and(|s| s == "double-buffer");
    let min_reads = if deep { 8 } else { 4 };

    // Two deterministic update batches with large detours around object
    // hosts, so successive serialized states answer differently.
    let scratch = build(FaultPlan::none());
    let net = scratch.net();
    let hosts: Vec<_> = scratch.objects().iter().map(|(_, h)| h).collect();
    let update_batches: Vec<Vec<dsi_service::EdgeUpdate>> = (0..2)
        .map(|k| {
            hosts
                .iter()
                .skip(k)
                .step_by(2)
                .take(3)
                .filter_map(|&host| {
                    let (_, b, w) = net.neighbors(host).next()?;
                    Some((host, b, w + 4_000 * (k as u32 + 1)))
                })
                .collect()
        })
        .collect();

    // Element-wise identity must hold on *every* state a reader can pin, so
    // the kNN cut-tie filter runs against each serialized state in turn
    // (the scratch twin walks the states; a tie on any of them drops the
    // query).
    let mut batch = mixed_batch(&scratch, 300);
    batch = drop_knn_cut_ties(&scratch, batch);
    for ups in &update_batches {
        scratch.apply_updates(ups);
        batch = drop_knn_cut_ties(&scratch, batch);
    }

    // Fault-free reference outputs on each serialized state S0..Sn.
    let clean = build(FaultPlan::none());
    let mut references = vec![serve(&clean, &batch, 2).outputs];
    for ups in &update_batches {
        clean.apply_updates(ups);
        references.push(serve(&clean, &batch, 2).outputs);
    }
    assert_ne!(
        references.first(),
        references.last(),
        "updates changed no answer — oracle is vacuous"
    );

    let faulty = build(FaultPlan::failures(fault_seed() ^ 0xEB0C, 0.08, 0.001));
    let done = std::sync::atomic::AtomicBool::new(false);
    let observed: Vec<Vec<dsi_service::QueryOutput>> = std::thread::scope(|scope| {
        let updater = scope.spawn(|| {
            for ups in &update_batches {
                faulty.apply_updates(ups);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            done.store(true, std::sync::atomic::Ordering::Release);
        });
        let mut observed = Vec::new();
        while !done.load(std::sync::atomic::Ordering::Acquire) || observed.len() < min_reads {
            observed.push(serve(&faulty, &batch, 2).outputs);
            if observed.len() > 100 {
                break; // safety valve; the updater can't take this long
            }
        }
        updater.join().expect("updater thread");
        observed
    });

    // Membership in the serialized-state family, with a monotone floor:
    // the live epoch only advances, so no batch may observe an older state
    // than its predecessor did.
    let mut floor = 0usize;
    for (run, outputs) in observed.iter().enumerate() {
        floor = references
            .iter()
            .enumerate()
            .position(|(k, r)| k >= floor && r == outputs)
            .unwrap_or_else(|| {
                panic!("faulty concurrent batch {run} matched no serialized state ≥ {floor}")
            });
    }
    assert_eq!(
        serve(&faulty, &batch, 2).outputs,
        *references.last().expect("non-empty"),
        "after maintenance quiesces, the faulty service must serve the final state"
    );
    assert_eq!(faulty.epoch(), update_batches.len() as u64);
}
