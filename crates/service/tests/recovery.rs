//! Crash-safe maintenance: kill-point tests. A maintenance history (attach
//! → updates → checkpoint → more updates) is driven to disk, then the
//! journal and checkpoint files are truncated at every write boundary to
//! simulate a crash at that instant — plus in-process kill points that cut
//! the publish protocol itself at each of its three boundaries.
//! `QueryService::recover` must always agree — on a full mixed query sweep
//! — with a from-scratch rebuild over whatever history verifiably
//! survived, land on exactly one epoch, and lose no acknowledged updates,
//! no matter where the tear landed.

use std::fs;
use std::path::{Path, PathBuf};

use dsi_graph::generate::{random_planar, PlanarConfig};
use dsi_graph::io::{load_network, read_objects};
use dsi_graph::{NodeId, ObjectSet};
use dsi_hierarchy::HubLabels;
use dsi_service::journal::{
    decode_records, read_checkpoint, BASE_NET_FILE, BASE_OBJ_FILE, CHECKPOINT_FILE, JOURNAL_FILE,
    RECORD_LEN,
};
use dsi_service::{
    generate, Backend, EdgeUpdate, JournalRecord, PublishKillPoint, Query, QueryService,
    ServiceConfig, Skew, WorkloadConfig,
};
use dsi_signature::{SignatureConfig, SignatureIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CHECKPOINT_AT: usize = 6;
const TOTAL_UPDATES: usize = 12;
/// Journal records per publish: the `publish-intent` / `publish-done` pair.
const PUBLISH_MARKERS: usize = 2;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsi_recovery_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn service_cfg() -> ServiceConfig {
    ServiceConfig {
        shards: 4,
        pool_pages: 32,
        ..Default::default()
    }
}

fn build_base() -> QueryService {
    let mut rng = StdRng::seed_from_u64(21);
    let net = random_planar(
        &PlanarConfig {
            num_nodes: 150,
            ..Default::default()
        },
        &mut rng,
    );
    let objects = ObjectSet::uniform(&net, 0.06, &mut rng);
    QueryService::new(net, objects, &SignatureConfig::default(), &service_cfg())
}

/// Deterministic edge updates derived from the *base* network: absolute
/// weights, so any replay from any starting point converges to the same
/// state. Some edges are hit more than once with different weights, which
/// is exactly what makes journal ordering observable.
fn edge_updates(svc: &QueryService, n: usize) -> Vec<EdgeUpdate> {
    let net = svc.net();
    (0..n)
        .map(|i| {
            let a = NodeId(((i * 31 + 7) % net.num_nodes()) as u32);
            let (_, b, w) = net.neighbors(a).next().expect("connected node");
            (a, b, w + 40 + (i as u32 % 5) * 23)
        })
        .collect()
}

/// Drive a full maintenance history into `dir` and "crash" (drop the
/// service): attach, 6 journaled updates (publish #1), explicit
/// checkpoint, 6 more updates (publish #2). Each publish journals its
/// intent/done marker pair and checkpoints inside the protocol. Returns
/// the query sweep used for all comparisons.
fn run_history(dir: &Path) -> Vec<Query> {
    let svc = build_base();
    svc.attach_maintenance_log(dir).unwrap();
    let all = edge_updates(&svc, TOTAL_UPDATES);
    svc.apply_updates(&all[..CHECKPOINT_AT]);
    svc.checkpoint().unwrap();
    svc.apply_updates(&all[CHECKPOINT_AT..]);
    assert_eq!(svc.epoch(), 2, "two update batches = two published epochs");
    assert_eq!(
        svc.journal_len(),
        Some((TOTAL_UPDATES + 2 * PUBLISH_MARKERS) as u64)
    );
    generate(
        &svc.net(),
        &WorkloadConfig {
            count: 80,
            seed: 4242,
            skew: Skew::Uniform,
            ..Default::default()
        },
    )
}

/// From-scratch ground truth: base snapshot + replay of whatever the given
/// journal image verifiably holds — the state recovery must reproduce.
fn reference_for(dir: &Path, journal_bytes: &[u8]) -> QueryService {
    let net = load_network(dir.join(BASE_NET_FILE)).unwrap();
    let objects = read_objects(fs::File::open(dir.join(BASE_OBJ_FILE)).unwrap(), &net).unwrap();
    let index = SignatureIndex::build(&net, &objects, &SignatureConfig::default());
    let svc = QueryService::from_parts(net, objects, index, &service_cfg());
    let updates: Vec<_> = decode_records(journal_bytes)
        .into_iter()
        .filter_map(|r| match r {
            JournalRecord::Update(u) => Some(u),
            _ => None,
        })
        .collect();
    svc.apply_updates(&updates);
    if !updates.is_empty() {
        assert_oracle_matches_epoch(&svc, "first publish after from_parts");
    }
    svc
}

/// The live epoch's labels are the labels of the hierarchy it ships, and
/// they answer for the network it ships — what a publish that repairs
/// (rather than rebuilds) its oracle must still guarantee.
fn assert_oracle_matches_epoch(svc: &QueryService, ctx: &str) {
    let ep = svc.snapshot();
    let (ch, hl) = (ep.hierarchy().unwrap(), ep.hub_labels().unwrap());
    assert!(*hl == HubLabels::build(ch), "{ctx}: labels vs hierarchy");
    let sweep = generate(
        &svc.net(),
        &WorkloadConfig {
            count: 60,
            seed: 99,
            ..Default::default()
        },
    );
    let truth = svc.serve_batch_on(Backend::Dijkstra, &sweep, 2).outputs;
    let got = svc.serve_batch_on(Backend::HubLabel, &sweep, 2).outputs;
    assert_eq!(got, truth, "{ctx}: labels vs dijkstra");
}

/// Both services must answer the whole sweep identically: same index
/// state → same signature-path results, element-wise.
fn assert_same_answers(a: &QueryService, b: &QueryService, batch: &[Query], ctx: &str) {
    let ra = a.serve_batch(batch, 2);
    let rb = b.serve_batch(batch, 2);
    assert_eq!(ra.outputs, rb.outputs, "{ctx}: query sweep diverged");
}

/// The single epoch the surviving journal *demands*: the last durable
/// `publish-done`, plus one if acknowledged updates follow it. Recomputed
/// here independently of the recovery code so the contract is pinned from
/// both sides.
fn expected_epoch(records: &[JournalRecord]) -> u64 {
    let mut done = 0u64;
    let mut tail_updates = false;
    for r in records {
        match r {
            JournalRecord::Update(_) => tail_updates = true,
            JournalRecord::PublishDone(e) => {
                done = *e as u64;
                tail_updates = false;
            }
            JournalRecord::PublishIntent(_) => {}
        }
    }
    done + u64::from(tail_updates)
}

/// Populate `work` as a crash image: base files and (optionally damaged)
/// journal/checkpoint.
fn stage(work: &Path, hist: &Path, journal: &[u8], checkpoint: Option<&[u8]>) {
    fs::copy(hist.join(BASE_NET_FILE), work.join(BASE_NET_FILE)).unwrap();
    fs::copy(hist.join(BASE_OBJ_FILE), work.join(BASE_OBJ_FILE)).unwrap();
    fs::write(work.join(JOURNAL_FILE), journal).unwrap();
    let cp = work.join(CHECKPOINT_FILE);
    let _ = fs::remove_file(&cp);
    if let Some(bytes) = checkpoint {
        fs::write(&cp, bytes).unwrap();
    }
}

#[test]
fn journal_truncated_at_every_boundary_recovers_consistently() {
    let hist = scratch_dir("hist_journal");
    let batch = run_history(&hist);
    let journal = fs::read(hist.join(JOURNAL_FILE)).unwrap();
    assert_eq!(
        journal.len(),
        8 + (TOTAL_UPDATES + 2 * PUBLISH_MARKERS) * RECORD_LEN
    );
    let checkpoint = fs::read(hist.join(CHECKPOINT_FILE)).unwrap();
    // The last publish checkpointed after journaling its intent: the
    // surviving checkpoint claims that much history.
    let ckpt_covers = read_checkpoint(hist.join(CHECKPOINT_FILE))
        .unwrap()
        .journal_len;

    let work = scratch_dir("cut_journal");
    for cut in (0..=journal.len()).step_by(4) {
        stage(&work, &hist, &journal[..cut], Some(&checkpoint));
        let (recovered, report) =
            QueryService::recover(&work, &SignatureConfig::default(), &service_cfg()).unwrap();
        let records = decode_records(&journal[..cut]);
        let survived = records
            .iter()
            .filter(|r| matches!(r, JournalRecord::Update(_)))
            .count();
        assert_eq!(report.journal_records, survived as u64, "cut at byte {cut}");
        // The checkpoint may only be trusted once the surviving journal
        // covers everything it claims.
        assert_eq!(
            report.from_checkpoint,
            records.len() as u64 >= ckpt_covers,
            "cut at byte {cut}"
        );
        // Exactly one epoch, derived from the surviving markers + updates.
        assert_eq!(report.epoch, expected_epoch(&records), "cut at byte {cut}");
        assert_eq!(recovered.epoch(), report.epoch, "cut at byte {cut}");
        let reference = reference_for(&work, &journal[..cut]);
        assert_same_answers(
            &recovered,
            &reference,
            &batch,
            &format!("journal cut at byte {cut}"),
        );
    }
}

#[test]
fn checkpoint_truncated_anywhere_is_ignored_not_trusted() {
    let hist = scratch_dir("hist_ckpt");
    let batch = run_history(&hist);
    let journal = fs::read(hist.join(JOURNAL_FILE)).unwrap();
    let checkpoint = fs::read(hist.join(CHECKPOINT_FILE)).unwrap();

    let work = scratch_dir("cut_ckpt");
    // Every boundary would re-run a full index build per cut; a stride plus
    // the edges (empty file, lone magic, one-short) covers each format
    // section without that cost.
    let mut cuts: Vec<usize> = (0..checkpoint.len()).step_by(97).collect();
    cuts.extend([1, 4, 7, 8, 12, checkpoint.len() - 1]);
    for cut in cuts {
        stage(&work, &hist, &journal, Some(&checkpoint[..cut]));
        let (recovered, report) =
            QueryService::recover(&work, &SignatureConfig::default(), &service_cfg()).unwrap();
        assert!(!report.from_checkpoint, "cut at byte {cut} was trusted");
        assert_eq!(report.replayed, TOTAL_UPDATES as u64);
        assert_eq!(report.epoch, 2, "full journal survived: epoch is fixed");
        let reference = reference_for(&work, &journal);
        assert_same_answers(
            &recovered,
            &reference,
            &batch,
            &format!("checkpoint cut at byte {cut}"),
        );
    }

    // A flipped bit inside the framed payload is likewise rejected.
    let mut flipped = checkpoint.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    stage(&work, &hist, &journal, Some(&flipped));
    let (recovered, report) =
        QueryService::recover(&work, &SignatureConfig::default(), &service_cfg()).unwrap();
    assert!(!report.from_checkpoint, "flipped checkpoint was trusted");
    assert_same_answers(
        &recovered,
        &reference_for(&work, &journal),
        &batch,
        "flipped checkpoint",
    );
}

#[test]
fn intact_checkpoint_shortcuts_replay_and_agrees() {
    let hist = scratch_dir("hist_intact");
    let batch = run_history(&hist);
    let journal = fs::read(hist.join(JOURNAL_FILE)).unwrap();

    let (recovered, report) =
        QueryService::recover(&hist, &SignatureConfig::default(), &service_cfg()).unwrap();
    assert!(report.from_checkpoint);
    assert_eq!(report.journal_records, TOTAL_UPDATES as u64);
    // The final publish checkpointed right before its `done` marker: the
    // only journal suffix past it is that marker — nothing to replay.
    assert_eq!(report.replayed, 0);
    assert_eq!(report.epoch, 2);
    assert_eq!(report.publishes, 2);
    assert!(!report.torn_publish);
    let reference = reference_for(&hist, &journal);
    assert_same_answers(&recovered, &reference, &batch, "intact checkpoint");
}

#[test]
fn recovered_service_keeps_journaling_and_survives_a_second_crash() {
    let hist = scratch_dir("hist_twice");
    let batch = run_history(&hist);
    // Tear the final append in half: the record lost is publish #2's
    // `done` marker — every acknowledged update survives.
    let journal = fs::read(hist.join(JOURNAL_FILE)).unwrap();
    fs::write(
        hist.join(JOURNAL_FILE),
        &journal[..journal.len() - RECORD_LEN / 2],
    )
    .unwrap();

    let (recovered, report) =
        QueryService::recover(&hist, &SignatureConfig::default(), &service_cfg()).unwrap();
    assert_eq!(report.journal_records, TOTAL_UPDATES as u64);
    assert!(report.torn_publish, "the torn record was a publish-done");
    assert_eq!(report.epoch, 2, "updates past publish #1 move the epoch");

    // The re-attached journal accepts new history at the repaired tail
    // (3 updates + the new publish's marker pair)...
    let before = recovered.journal_len().unwrap();
    let more = edge_updates(&recovered, 3);
    recovered.apply_updates(&more);
    assert_eq!(
        recovered.journal_len(),
        Some(before + 3 + PUBLISH_MARKERS as u64)
    );
    assert_oracle_matches_epoch(&recovered, "first publish after recover");
    drop(recovered);

    // ...and a second crash-recovery sees old + new history seamlessly.
    let after = fs::read(hist.join(JOURNAL_FILE)).unwrap();
    let (again, report) =
        QueryService::recover(&hist, &SignatureConfig::default(), &service_cfg()).unwrap();
    assert_eq!(report.journal_records, (TOTAL_UPDATES + 3) as u64);
    assert!(!report.torn_publish, "the new publish completed durably");
    assert_same_answers(
        &again,
        &reference_for(&hist, &after),
        &batch,
        "second recovery",
    );
}

/// A batch naming a pair of nodes that share no edge (or a node the network
/// does not have) is refused whole, before the journal sees it: no record a
/// replay would choke on, no patch, no epoch, no poisoned maintenance lock —
/// the next good batch publishes and the log recovers.
#[test]
fn a_bad_batch_is_refused_whole_and_leaves_no_trace() {
    let dir = scratch_dir("bad_batch");
    let svc = build_base();
    svc.attach_maintenance_log(&dir).unwrap();
    let sweep = generate(
        &svc.net(),
        &WorkloadConfig {
            count: 60,
            seed: 7,
            ..Default::default()
        },
    );
    let before = svc.serve_batch(&sweep, 2).outputs;
    let good = edge_updates(&svc, 4);
    let net = svc.net();
    let stranger = net
        .nodes()
        .find(|&v| v != good[0].0 && net.edge_weight(good[0].0, v).is_none())
        .expect("some node is not a neighbour");
    let beyond = NodeId(net.num_nodes() as u32);
    for bad in [
        (good[0].0, stranger, 9),
        (beyond, good[0].0, 9),
        (good[0].0, beyond, 9),
    ] {
        // The bad update sits behind good ones: none of them may land.
        let batch = [good[0], good[1], bad];
        let err = svc.try_apply_updates(&batch).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{bad:?}");
        assert_eq!(svc.epoch(), 0);
        assert_eq!(svc.journal_len(), Some(0));
        assert_eq!(svc.serve_batch(&sweep, 2).outputs, before, "{bad:?}");
    }

    svc.try_apply_updates(&good).unwrap();
    assert_eq!(svc.epoch(), 1);
    assert_eq!(
        svc.journal_len(),
        Some((good.len() + PUBLISH_MARKERS) as u64)
    );
    assert_oracle_matches_epoch(&svc, "good batch after refused ones");
    let after = svc.serve_batch(&sweep, 2).outputs;
    drop(svc);
    let (recovered, report) =
        QueryService::recover(&dir, &SignatureConfig::default(), &service_cfg()).unwrap();
    assert_eq!(report.journal_records, good.len() as u64);
    assert_eq!(recovered.serve_batch(&sweep, 2).outputs, after);
    drop(recovered);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn attach_refuses_to_shadow_existing_history() {
    let hist = scratch_dir("hist_shadow");
    run_history(&hist);
    let svc = build_base();
    let err = svc.attach_maintenance_log(&hist).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

/// Cut the publish protocol itself at each boundary (intent journaled /
/// checkpoint renamed / done journaled) via the in-process kill points:
/// the files left behind are byte-for-byte what a process killed at that
/// instant leaves (every prior step is synced). Recovery must land on
/// exactly one epoch and lose none of the 12 acknowledged updates.
#[test]
fn publish_kill_points_recover_to_exactly_one_epoch() {
    for kp in [
        PublishKillPoint::AfterIntent,
        PublishKillPoint::AfterRename,
        PublishKillPoint::AfterDone,
    ] {
        let dir = scratch_dir(&format!("kill_{kp:?}"));
        let svc = build_base();
        svc.attach_maintenance_log(&dir).unwrap();
        let all = edge_updates(&svc, TOTAL_UPDATES);
        // One clean publish first, so the kill lands on non-trivial history.
        svc.apply_updates(&all[..CHECKPOINT_AT]);
        assert_eq!(svc.epoch(), 1);

        svc.arm_publish_kill_point(kp);
        let err = svc.try_apply_updates(&all[CHECKPOINT_AT..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::Interrupted, "{kp:?}");
        // The "crashed" publish never swapped the live epoch in memory.
        assert_eq!(svc.epoch(), 1, "{kp:?}: swap must not precede durability");
        drop(svc); // the crash

        let (recovered, report) =
            QueryService::recover(&dir, &SignatureConfig::default(), &service_cfg()).unwrap();
        // No lost acknowledged updates: both batches are in the state.
        assert_eq!(report.journal_records, TOTAL_UPDATES as u64, "{kp:?}");
        // Exactly one epoch — number 2, whether the marker pair completed
        // (AfterDone) or the surviving tail updates force the bump.
        assert_eq!(report.epoch, 2, "{kp:?}");
        assert_eq!(recovered.epoch(), 2, "{kp:?}");
        assert_eq!(
            report.torn_publish,
            kp != PublishKillPoint::AfterDone,
            "{kp:?}: intent without done iff the protocol was cut before done"
        );

        // The recovered state must equal a from-scratch rebuild over the
        // full surviving history — i.e. all 12 updates applied once.
        let journal = fs::read(dir.join(JOURNAL_FILE)).unwrap();
        let records = decode_records(&journal);
        assert_eq!(report.epoch, expected_epoch(&records), "{kp:?}");
        let batch = generate(
            &recovered.net(),
            &WorkloadConfig {
                count: 80,
                seed: 4242,
                skew: Skew::Uniform,
                ..Default::default()
            },
        );
        assert_same_answers(
            &recovered,
            &reference_for(&dir, &journal),
            &batch,
            &format!("{kp:?}"),
        );

        // And the recovered service publishes cleanly from there.
        recovered.apply_updates(&edge_updates(&recovered, 2));
        assert_eq!(recovered.epoch(), 3, "{kp:?}: next publish lands on 3");
    }
}

#[test]
fn recovery_rebuilds_partitions_over_the_replayed_network() {
    let hist = scratch_dir("hist_parted");
    let batch = run_history(&hist);

    // Recover under a partitioned configuration: the per-region indexes
    // must be built over the *post-replay* network (building them before
    // replay would bake stale boundary glue into every region).
    let parted_cfg = ServiceConfig {
        partitions: 2,
        ..service_cfg()
    };
    // Force a replay by discarding the checkpoint shortcut.
    fs::remove_file(hist.join(CHECKPOINT_FILE)).unwrap();
    let (recovered, report) =
        QueryService::recover(&hist, &SignatureConfig::default(), &parted_cfg).unwrap();
    assert!(report.replayed > 0, "history must force a replay");
    assert_eq!(recovered.num_partitions(), 2);

    // The Dijkstra backend reads the replayed network directly; element-wise
    // agreement proves the partitioned indexes reflect the same state.
    let sharded = recovered.serve_batch_on(dsi_service::Backend::Sharded, &batch, 2);
    let truth = recovered.serve_batch_on(dsi_service::Backend::Dijkstra, &batch, 2);
    assert_eq!(
        sharded.outputs, truth.outputs,
        "sharded answers diverged from the replayed network"
    );

    // And the whole state matches a from-scratch rebuild of the history.
    let journal = fs::read(hist.join(JOURNAL_FILE)).unwrap();
    assert_same_answers(
        &recovered,
        &reference_for(&hist, &journal),
        &batch,
        "partitioned recovery",
    );
}
