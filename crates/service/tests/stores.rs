//! Store-mode equivalence: the memory-only page model, the file-backed
//! store, and the mmap store must be element-wise indistinguishable — same
//! answers on every backend, same logical page accounting — because the
//! store mode only changes *how* a buffer miss is served (accounting-only
//! vs `pread` vs mapped copy, plus CRC verification), never what any query
//! decodes. Batched prefetch must preserve the same invariant: readahead
//! changes the physical call pattern, not the answers or the logical
//! charge.

use dsi_graph::generate::{random_planar, PlanarConfig};
use dsi_graph::ObjectSet;
use dsi_service::{
    generate, Backend, QueryService, ServiceConfig, Skew, StoreMode, WorkloadConfig,
};
use dsi_signature::SignatureConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Three identically-seeded services differing only in store mode (and,
/// when asked, readahead). `pool_pages` is kept small so the batch keeps
/// missing — a pool that swallows the working set would leave the physical
/// path idle after warmup.
fn build(store: StoreMode, readahead: u32, partitions: usize) -> QueryService {
    let mut rng = StdRng::seed_from_u64(17);
    let net = random_planar(
        &PlanarConfig {
            num_nodes: 400,
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
            store,
            readahead,
            partitions,
            ..Default::default()
        },
    )
}

fn batch_for(service: &QueryService, count: usize) -> Vec<dsi_service::Query> {
    generate(
        &service.net(),
        &WorkloadConfig {
            count,
            seed: 99,
            skew: Skew::Zipf { theta: 0.8 },
            ..Default::default()
        },
    )
}

#[test]
fn store_modes_answer_identically_on_all_backends() {
    let mem = build(StoreMode::Mem, 0, 2);
    let file = build(StoreMode::File, 0, 2);
    let mmap = build(StoreMode::Mmap, 0, 2);
    let batch = batch_for(&mem, 300);

    for backend in [
        Backend::Signature,
        Backend::Dijkstra,
        Backend::HubLabel,
        Backend::Sharded,
    ] {
        let a = mem.serve_batch_on(backend, &batch, 2);
        let b = file.serve_batch_on(backend, &batch, 2);
        let c = mmap.serve_batch_on(backend, &batch, 2);
        for (i, q) in batch.iter().enumerate() {
            assert_eq!(
                a.outputs[i],
                b.outputs[i],
                "query {i} ({q:?}) diverged mem vs file on {}",
                backend.label()
            );
            assert_eq!(
                a.outputs[i],
                c.outputs[i],
                "query {i} ({q:?}) diverged mem vs mmap on {}",
                backend.label()
            );
        }
        // The logical page charge is a property of the query stream, not of
        // how misses are served.
        assert_eq!(
            a.io.logical,
            b.io.logical,
            "logical accounting diverged mem vs file on {}",
            backend.label()
        );
        assert_eq!(
            b.io.logical,
            c.io.logical,
            "logical accounting diverged file vs mmap on {}",
            backend.label()
        );
    }
}

#[test]
fn batched_prefetch_preserves_answers_and_logical_charge() {
    let plain = build(StoreMode::File, 0, 1);
    let batched = build(StoreMode::File, 8, 1);
    let batch = batch_for(&plain, 300);

    // One worker on each side: which shard a query lands on is fixed, but
    // the order two workers reach a shard's pool is not, and the physical
    // read counts compared below follow that order.
    let a = plain.serve_batch_on(Backend::Signature, &batch, 1);
    let b = batched.serve_batch_on(Backend::Signature, &batch, 1);
    for (i, q) in batch.iter().enumerate() {
        assert_eq!(
            a.outputs[i], b.outputs[i],
            "query {i} ({q:?}) diverged with readahead"
        );
    }
    assert_eq!(
        a.io.logical, b.io.logical,
        "readahead changed the logical page-access charge"
    );
    // The batched run actually batched: coalesced multi-page reads were
    // issued, some prefetched pages were used by later demand reads, and
    // the physical call count dropped below the unbatched run's.
    assert!(a.io.batched_reads == 0, "readahead 0 issued a batch");
    assert!(b.io.batched_reads > 0, "readahead 8 never batched");
    assert!(
        b.io.batch_pages > b.io.batched_reads,
        "batches never coalesced more than one page"
    );
    assert!(b.io.prefetch_hits > 0, "no prefetched page was ever used");
    assert!(
        b.io.physical_reads() < a.io.physical_reads(),
        "batching did not reduce physical read calls: {} vs {}",
        b.io.physical_reads(),
        a.io.physical_reads()
    );
}

#[test]
fn epoch_maintenance_replaces_the_backing_file() {
    // Updates publish a fresh epoch, whose page image is re-materialised;
    // the superseded epoch's file is unlinked once retired. Answers after
    // the swap must reflect the update on the file-backed path too.
    let file = build(StoreMode::File, 4, 1);
    let mem = build(StoreMode::Mem, 0, 1);
    let batch = batch_for(&file, 200);

    let host = file.objects().iter().next().expect("objects exist").1;
    let updates: Vec<_> = file
        .net()
        .neighbors(host)
        .map(|(_, b, w)| (host, b, w + 5_000))
        .collect();
    file.apply_updates(&updates);
    mem.apply_updates(&updates);
    assert_eq!(file.epoch(), 1);

    let got = file.serve_batch_on(Backend::Signature, &batch, 2);
    let want = mem.serve_batch_on(Backend::Signature, &batch, 2);
    for (i, q) in batch.iter().enumerate() {
        assert_eq!(
            got.outputs[i], want.outputs[i],
            "query {i} ({q:?}) stale after epoch swap on the file store"
        );
    }
}
