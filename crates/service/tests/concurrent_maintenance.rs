//! Zero-pause maintenance: the serialized-order oracle. Update batches are
//! applied *while* query batches run, on every backend. Because each query
//! batch pins one immutable epoch snapshot, its outputs must be
//! element-wise equal to the outputs the same batch produces on one of the
//! serialized states S0..Sn (the state after 0, 1, ..., n update batches)
//! — never a mix of two states — and the states observed by successive
//! batches must be non-decreasing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use dsi_graph::generate::{random_planar, PlanarConfig};
use dsi_graph::{NodeId, ObjectSet};
use dsi_service::{
    generate, Backend, EdgeUpdate, Query, QueryOutput, QueryService, ServiceConfig, Skew,
    WorkloadConfig,
};
use dsi_signature::SignatureConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

const UPDATE_BATCHES: usize = 3;

fn build_service(partitions: usize) -> QueryService {
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
            partitions,
            ..Default::default()
        },
    )
}

fn query_batch(service: &QueryService) -> Vec<Query> {
    generate(
        &service.net(),
        &WorkloadConfig {
            count: 60,
            seed: 77,
            skew: Skew::Zipf { theta: 0.8 },
            ..Default::default()
        },
    )
}

/// Deterministic update batches with large, distinct absolute weights
/// anchored near object hosts, so every serialized state S0..Sn answers the
/// sweep differently (which is what makes the oracle discriminating).
fn update_batches(service: &QueryService) -> Vec<Vec<EdgeUpdate>> {
    let net = service.net();
    let hosts: Vec<NodeId> = service.objects().iter().map(|(_, h)| h).collect();
    // Each undirected edge appears in at most one batch (two hosts can name
    // the same edge from opposite endpoints): with disjoint edge sets, any
    // application order converges to the same final state, which the
    // racing-writers test relies on.
    let mut touched = std::collections::HashSet::new();
    (0..UPDATE_BATCHES)
        .map(|batch| {
            hosts
                .iter()
                .skip(batch)
                .step_by(3)
                .take(4)
                .filter_map(|&host| {
                    let (_, b, _) = net.neighbors(host).next()?;
                    touched
                        .insert((host.0.min(b.0), host.0.max(b.0)))
                        .then_some((host, b, 2_000 * (batch as u32 + 1) + host.0 % 97))
                })
                .collect()
        })
        .collect()
}

/// Outputs of `batch` on each serialized state S0..Sn, computed on a
/// twin service that applies the same update batches one at a time.
fn serialized_references(
    backend: Backend,
    partitions: usize,
    batch: &[Query],
    updates: &[Vec<EdgeUpdate>],
) -> Vec<Vec<QueryOutput>> {
    let twin = build_service(partitions);
    let mut refs = vec![twin.serve_batch_on(backend, batch, 2).outputs];
    for ups in updates {
        twin.apply_updates(ups);
        refs.push(twin.serve_batch_on(backend, batch, 2).outputs);
    }
    refs
}

/// Run reader batches concurrently with an updater thread and check every
/// batch's outputs against the serialized-state oracle.
fn oracle_run(backend: Backend, partitions: usize) {
    let service = build_service(partitions);
    let batch = query_batch(&service);
    let updates = update_batches(&service);
    assert!(updates.iter().all(|u| !u.is_empty()));
    let refs = serialized_references(backend, partitions, &batch, &updates);
    assert_ne!(
        refs.first(),
        refs.last(),
        "updates never changed an answer — oracle is vacuous"
    );

    let done = AtomicBool::new(false);
    let observed: Vec<Vec<QueryOutput>> = std::thread::scope(|scope| {
        let updater = scope.spawn(|| {
            for ups in &updates {
                service.apply_updates(ups);
                // Give readers a chance to land on intermediate states.
                std::thread::sleep(Duration::from_millis(2));
            }
            done.store(true, Ordering::Release);
        });
        let mut observed = Vec::new();
        while !done.load(Ordering::Acquire) || observed.len() < 4 {
            observed.push(service.serve_batch_on(backend, &batch, 2).outputs);
            if observed.len() > 200 {
                break; // safety valve; the updater can't take this long
            }
        }
        updater.join().expect("updater thread");
        observed
    });

    // Every concurrent batch matches exactly one serialized state, and the
    // states move forward in time (a batch never observes an older state
    // than its predecessor did — the live epoch only advances).
    let mut floor = 0usize;
    for (run, outputs) in observed.iter().enumerate() {
        let matches: Vec<usize> = refs
            .iter()
            .enumerate()
            .filter(|(_, r)| *r == outputs)
            .map(|(k, _)| k)
            .collect();
        assert!(
            !matches.is_empty(),
            "{}: concurrent batch {run} matched no serialized state — \
             it observed a mix of epochs",
            backend.label()
        );
        let k = *matches.iter().find(|&&k| k >= floor).unwrap_or_else(|| {
            panic!(
                "{}: batch {run} observed state {:?} after state {floor}",
                backend.label(),
                matches
            )
        });
        floor = k;
    }

    // Eventual visibility: with maintenance quiesced, readers see Sn.
    assert_eq!(
        service.serve_batch_on(backend, &batch, 2).outputs,
        *refs.last().expect("non-empty refs"),
        "{}: final state must be the last serialized state",
        backend.label()
    );
    assert_eq!(service.epoch(), UPDATE_BATCHES as u64);
    assert_eq!(service.epoch_swap_count(), UPDATE_BATCHES as u64);
}

#[test]
fn signature_backend_observes_serialized_states() {
    oracle_run(Backend::Signature, 1);
}

#[test]
fn dijkstra_backend_observes_serialized_states() {
    oracle_run(Backend::Dijkstra, 1);
}

#[test]
fn hub_label_backend_observes_serialized_states() {
    oracle_run(Backend::HubLabel, 1);
}

#[test]
fn sharded_backend_observes_serialized_states() {
    oracle_run(Backend::Sharded, 3);
}

/// Writers racing writers: several threads applying update batches
/// concurrently must serialize through the maintenance lock and publish
/// epochs whose final state equals *some* permutation-free sequential
/// application (the canonical state is patched under the lock, in
/// acknowledgement order), while readers stay consistent throughout.
#[test]
fn concurrent_writers_serialize_and_readers_stay_consistent() {
    let service = build_service(1);
    let batch = query_batch(&service);
    let updates = update_batches(&service);

    // Writer w applies batch w; the acknowledgement order is whatever the
    // lock arbitration picks, but distinct batches touch distinct edges
    // (hosts stride by 3 with distinct offsets), so every order converges
    // to the same final state.
    std::thread::scope(|scope| {
        for ups in &updates {
            scope.spawn(|| service.apply_updates(ups));
        }
        for _ in 0..6 {
            let r = service.serve_batch_on(Backend::Signature, &batch, 2);
            assert_eq!(r.outputs.len(), batch.len());
        }
    });

    // All three batches are acknowledged; the final published epoch must
    // answer exactly like a sequential application of all of them.
    let twin = build_service(1);
    for ups in &updates {
        twin.apply_updates(ups);
    }
    assert_eq!(
        service.serve_batch(&batch, 2).outputs,
        twin.serve_batch(&batch, 2).outputs,
        "racing writers diverged from sequential application"
    );
    // Every batch was acknowledged into the canonical state; the final
    // epoch may have been published by any of the racing writers (a ceding
    // writer's updates ride along in the fresher epoch), so the swap count
    // is between 1 and the batch count.
    let swaps = service.epoch_swap_count();
    assert!(
        (1..=UPDATE_BATCHES as u64).contains(&swaps),
        "expected 1..=3 epoch swaps, saw {swaps}"
    );
    assert_eq!(service.epoch(), swaps);
}

/// Two writers released together, round after round, so that one
/// acknowledges while the other builds and catch-up rounds happen: every
/// publish repairs the oracle of whatever epoch was live when its writer
/// snapshotted, from that writer's own log of re-weightings. Whoever wins,
/// the labels an epoch ships are the labels of the hierarchy it ships, and
/// both answer for the network it ships.
#[test]
fn racing_writers_ship_labels_that_match_their_hierarchy() {
    let service = build_service(1);
    let batch = query_batch(&service);
    let net = service.net();
    let hosts: Vec<NodeId> = service.objects().iter().map(|(_, h)| h).collect();
    // Writer `w` re-weights the first edge of every other host, to a weight
    // that moves with the round: both writers hit overlapping regions and
    // the same edge is logged again and again.
    let edges_of = |w: usize| -> Vec<(NodeId, NodeId)> {
        let firsts = hosts.iter().skip(w).step_by(2);
        firsts
            .filter_map(|&h| net.neighbors(h).next().map(|(_, b, _)| (h, b)))
            .collect()
    };
    let gate = std::sync::Barrier::new(2);
    let mut rounds = 0u32;
    while rounds < 4 || (service.catchup_counts().0 == 0 && rounds < 60) {
        std::thread::scope(|scope| {
            for w in 0..2 {
                let (service, gate, edges) = (&service, &gate, edges_of(w));
                scope.spawn(move || {
                    let ups: Vec<EdgeUpdate> = edges
                        .iter()
                        .map(|&(a, b)| (a, b, 1 + (rounds * 37 + w as u32 * 11 + a.0) % 300))
                        .collect();
                    gate.wait();
                    service.apply_updates(&ups);
                });
            }
        });
        rounds += 1;
    }
    let (retries, cedes) = service.catchup_counts();
    eprintln!("{rounds} rounds, {retries} catch-up retries, {cedes} cedes");

    let ep = service.snapshot();
    let (ch, hl) = (ep.hierarchy().unwrap(), ep.hub_labels().unwrap());
    assert!(
        *hl == dsi_hierarchy::HubLabels::build(ch),
        "the live labels are not those of the live hierarchy"
    );
    assert_eq!(
        service.serve_batch_on(Backend::HubLabel, &batch, 2).outputs,
        service.serve_batch_on(Backend::Dijkstra, &batch, 2).outputs
    );
}
