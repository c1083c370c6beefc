//! The publish shell: double-buffered maintenance around
//! [`EpochIndex::repaired`], and its crash-safe protocol.
//!
//! # Double-buffered maintenance
//!
//! [`QueryService::apply_updates`] takes `&self`. Under the maintenance
//! mutex it only validates the batch, journals it and patches the
//! acknowledged network, logging every re-weighting since the live epoch.
//! Then, **with the lock dropped** — further update batches keep landing
//! while the shadow epoch builds — it derives the next epoch from the live
//! one with [`EpochIndex::repaired`]. A builder that snapshotted behind a
//! racing writer repairs from its own snapshot of the live epoch and the
//! log, and the writer that swaps its epoch in empties the log. A bounded
//! catch-up loop re-checks for updates that arrived during the build
//! (retry with backoff, then cede to the fresher writer), and the finished
//! epoch is published with an atomic swap (`Arc` flip + epoch bump).
//! Readers never block on maintenance; at worst they keep answering from
//! the previous epoch — every answer is element-wise equal to *some*
//! single serialized order of update batches. Every publish leaves a
//! [`PublishProfile`] behind, readable through
//! [`QueryService::last_publish_profile`] and printed by
//! [`QueryService::stats_dump`].
//!
//! # Crash-safe publish
//!
//! With a maintenance log attached, the publish itself is a protocol, not
//! just a pointer swap: maintenance appends a *publish-intent* record to
//! the journal, writes the full-state checkpoint (temp + sync + atomic
//! rename), appends *publish-done*, and only then flips the Arc. Every
//! step is synced before the next. A crash anywhere in that sequence leaves
//! the journal's update records — the source of truth — intact, so
//! [`QueryService::recover`] always lands on exactly one epoch: the markers
//! tell it how far publishing got, the updates tell it what the state is,
//! and a checkpoint is only trusted when the surviving journal covers it.
//! Kill-point instrumentation ([`QueryService::arm_publish_kill_point`])
//! lets tests cut the protocol at each boundary.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, MutexGuard};
use std::time::{Duration, Instant};

use dsi_graph::ids::{max_weight, weight_in_domain};
use dsi_graph::io::{load_network, read_objects, write_network, write_objects, LoadError};
use dsi_graph::{Dist, NodeId, RoadNetwork, INFINITY};
use dsi_hierarchy::{ChConfig, ContractionHierarchy};
use dsi_signature::update::UpdateReport;
use dsi_signature::{SignatureConfig, SignatureIndex};

use crate::engine::{QueryService, ServiceConfig};
use crate::epoch::{timed, EpochIndex, Oracle, PublishProfile};
use crate::journal::{
    read_checkpoint, write_atomically, write_checkpoint, EdgeUpdate, JournalRecord, UpdateJournal,
    BASE_NET_FILE, BASE_OBJ_FILE, CHECKPOINT_FILE, JOURNAL_FILE,
};

/// Rounds the shadow-epoch builder re-snapshots and rebuilds when update
/// batches land faster than it can catch up, before it cedes publishing to
/// the fresher writer (readers keep the old epoch meanwhile — the
/// degradation is staleness, never blocking).
const CATCHUP_ROUNDS: u32 = 4;

/// The maintenance state behind the mutex: the acknowledged network and
/// what separates it from the live epoch. Everything else a shadow epoch
/// needs it takes from the live epoch, which only a holder of this mutex
/// swaps.
pub(crate) struct MaintState {
    /// The network with every acknowledged batch applied.
    pub(crate) net: RoadNetwork,
    /// Update batches acknowledged so far (process-local; the shadow
    /// builder uses it to detect falling behind).
    pub(crate) seq: u64,
    /// Highest `seq` whose epoch has been published (or claimed by a
    /// publishing writer) — prevents double-publishing one state.
    pub(crate) published_seq: u64,
    /// Write-ahead journal + its directory, when a maintenance log is
    /// attached.
    pub(crate) wal: Option<UpdateJournal>,
    pub(crate) log_dir: Option<PathBuf>,
    /// Journal records the live epoch's state covers: what
    /// [`QueryService::checkpoint`] records beside it.
    pub(crate) live_journal_len: u64,
    /// Every edge re-weighting acknowledged since the live epoch was
    /// swapped in, as `(a, b, weight before)`, oldest first — what separates
    /// the network the live epoch serves from `net`. A publish swaps at
    /// `seq` exactly, so swapping its epoch in empties the log.
    pub(crate) reweighted: Vec<(NodeId, NodeId, Dist)>,
    /// Phase timings of the last publish that swapped an epoch in.
    pub(crate) last_publish: PublishProfile,
    /// Times a shadow build re-snapshotted because update batches landed
    /// mid-build, and builds that exhausted [`CATCHUP_ROUNDS`] and ceded
    /// publishing to a fresher writer.
    pub(crate) catchup_retries: u64,
    pub(crate) publish_cedes: u64,
    /// Armed test kill point (consumed by the next publish that reaches
    /// it).
    pub(crate) kill_point: Option<PublishKillPoint>,
}

/// The snapshot a shadow epoch is built from: the acknowledged network,
/// the live epoch it derives from, and the re-weightings between the two.
struct ShadowState {
    seq: u64,
    net: Arc<RoadNetwork>,
    base: Arc<EpochIndex>,
    reweighted: Vec<(NodeId, NodeId, Dist)>,
}

/// Boundaries of the crash-safe publish protocol where test instrumentation
/// can simulate a crash (see [`QueryService::arm_publish_kill_point`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PublishKillPoint {
    /// Die after the publish-intent record is synced, before the checkpoint
    /// temp file is renamed into place.
    AfterIntent,
    /// Die after the checkpoint rename, before publish-done is appended.
    AfterRename,
    /// Die after publish-done is synced, before the in-memory `Arc` swap.
    AfterDone,
}

/// What [`QueryService::recover`] found and did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Valid update records surviving in the journal (after tail repair).
    pub journal_records: u64,
    /// Updates replayed onto the starting state (all of them when starting
    /// from the base snapshot, only the suffix when from a checkpoint).
    pub replayed: u64,
    /// Whether a usable checkpoint shortcut the replay.
    pub from_checkpoint: bool,
    /// The single epoch the recovered service landed on: the last durably
    /// published epoch, plus one when acknowledged updates survived past
    /// it.
    pub epoch: u64,
    /// Completed publishes (`publish-done` markers) in the surviving
    /// journal.
    pub publishes: u64,
    /// Whether the tail holds a `publish-intent` without its `done` — a
    /// publish the crash tore. The recovered state is whole either way.
    pub torn_publish: bool,
}

/// Consume the armed kill point if it matches this boundary.
fn check_kill(armed: &mut Option<PublishKillPoint>, at: PublishKillPoint) -> io::Result<()> {
    if armed.take_if(|kp| *kp == at).is_none() {
        return Ok(());
    }
    let why = format!("publish kill point {at:?}");
    Err(io::Error::new(io::ErrorKind::Interrupted, why))
}

/// Why `updates` cannot go onto `net`, if they cannot: an edge the network
/// does not have, or a weight outside the weight domain
/// ([`dsi_graph::ids::max_weight`]).
fn inapplicable(net: &RoadNetwork, updates: &[EdgeUpdate]) -> Option<String> {
    let n = net.num_nodes();
    updates.iter().find_map(|&(a, b, w)| {
        if a.index() >= n || net.edge_weight(a, b).is_none() {
            Some(format!("update of edge ({a}, {b}): the nodes are not adjacent"))
        } else if !weight_in_domain(w, n) {
            Some(format!(
                "update of edge ({a}, {b}): weight {w} outside the weight domain 1..={} or INFINITY",
                max_weight(n)
            ))
        } else {
            None
        }
    })
}

impl QueryService {
    /// Apply edge-weight updates (§5.4) without ever blocking readers.
    /// With a maintenance log attached, the updates are journaled (and
    /// synced) *before* any state is patched; a journal write failure
    /// panics — use [`Self::try_apply_updates`] to handle it.
    pub fn apply_updates(&self, updates: &[EdgeUpdate]) -> Vec<UpdateReport> {
        self.try_apply_updates(updates)
            .expect("write-ahead journal append failed")
    }

    /// [`Self::apply_updates`] with maintenance I/O errors surfaced.
    ///
    /// Three phases (see the module docs):
    ///
    /// 1. **Acknowledge** (brief maintenance lock): validate the batch,
    ///    journal it, patch the acknowledged network, snapshot it with the
    ///    live epoch. A journal failure aborts here — nothing is patched and
    ///    the service keeps serving its pre-update epochs — and so does a
    ///    batch naming an edge the network does not have, setting a weight
    ///    outside the weight domain ([`dsi_graph::ids::max_weight`]), or
    ///    closing edges (weight [`dsi_graph::INFINITY`]) so that some node
    ///    can no longer reach every other (`ErrorKind::InvalidInput`,
    ///    checked before anything is journaled).
    /// 2. **Build** (no locks): [`EpochIndex::repaired`] derives the shadow
    ///    epoch from the snapshot while readers keep serving the live epoch
    ///    and further update batches keep acknowledging.
    /// 3. **Publish** (bounded catch-up): if newer batches landed
    ///    mid-build, re-snapshot and rebuild (with backoff) up to
    ///    [`CATCHUP_ROUNDS`]; then run the crash-safe publish protocol and
    ///    swap the live epoch. A builder that cannot catch up cedes to the
    ///    fresher writer — its updates are already acknowledged and will be
    ///    in that writer's epoch.
    ///
    /// On success the published (or superseding) epoch reflects these
    /// updates; an `Err` past phase 1 means the updates are durable and
    /// applied but the publish protocol hit an I/O failure — recovery
    /// replays them. The reports are those of the last shadow build this
    /// call ran (a catch-up round re-derives every re-weighting since the
    /// live epoch, other writers' included, and charges each to its own
    /// update).
    pub fn try_apply_updates(&self, updates: &[EdgeUpdate]) -> io::Result<Vec<UpdateReport>> {
        if updates.is_empty() {
            return Ok(Vec::new());
        }
        let mut profile = PublishProfile::default();
        let (mine, shadow) = {
            let mut m = self.maint();
            let t = Instant::now();
            // Nothing is journaled or patched unless the whole batch names
            // edges of the network, keeps to the weight domain and leaves
            // the network connected: a record that cannot be applied would
            // fail again on every replay.
            if let Some(why) = inapplicable(&m.net, updates) {
                return Err(io::Error::new(io::ErrorKind::InvalidInput, why));
            }
            if updates.iter().any(|&(_, _, w)| w == INFINITY) {
                let mut probe = m.net.clone();
                for &(a, b, w) in updates {
                    probe.set_edge_weight(a, b, w);
                }
                if !probe.is_connected() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "the batch closes edges the network cannot do without: it would disconnect",
                    ));
                }
            }
            if let Some(wal) = m.wal.as_mut() {
                wal.append(updates)?;
            }
            let start = m.reweighted.len();
            for &(a, b, w) in updates {
                let was = m.net.set_edge_weight(a, b, w);
                m.reweighted.push((a, b, was));
            }
            m.seq += 1;
            profile.maintain = t.elapsed();
            let shadow = timed(&mut profile.pages_swap, || self.shadow(&m));
            (start..start + updates.len(), shadow)
        };
        self.build_and_publish(shadow, profile, mine)
    }

    /// Snapshot the acknowledged network, the live epoch and the log
    /// between them (the caller holds the maintenance lock, so the live
    /// epoch cannot move meanwhile).
    fn shadow(&self, m: &MaintState) -> ShadowState {
        ShadowState {
            seq: m.seq,
            net: Arc::new(m.net.clone()),
            base: self.snapshot(),
            reweighted: m.reweighted.clone(),
        }
    }

    /// Phase 2+3 of maintenance: repair the shadow epoch off to the side,
    /// catch up if update batches landed mid-build, publish atomically.
    /// `profile` arrives holding the time phase 1 took and leaves in
    /// `MaintState::last_publish` when this call swaps an epoch in
    /// (build phases and work counts accumulate over catch-up rounds).
    /// Returns the reports of the caller's updates, `mine` in the log.
    fn build_and_publish(
        &self,
        mut shadow: ShadowState,
        mut profile: PublishProfile,
        mine: std::ops::Range<usize>,
    ) -> io::Result<Vec<UpdateReport>> {
        for round in 0..CATCHUP_ROUNDS {
            // The expensive work happens with no lock held: readers serve the
            // live epoch, writers acknowledge into the maintenance state.
            let (net, base) = (Arc::clone(&shadow.net), &shadow.base);
            let (ep, mut reports, built) = base.repaired(net, &shadow.reweighted, &self.cfg);
            profile += built;
            let reports: Vec<UpdateReport> = reports.drain(mine.clone()).collect();

            let mut m = self.maint();
            let locked = Instant::now();
            if m.published_seq >= shadow.seq {
                // A fresher writer already published an epoch containing
                // this batch (its snapshot was taken after ours was
                // acknowledged). Nothing to do.
                return Ok(reports);
            }
            if m.seq != shadow.seq {
                // Batches landed while we built: re-snapshot and retry.
                m.catchup_retries += 1;
                if round + 1 == CATCHUP_ROUNDS {
                    // Catch-up exhausted: cede publishing to the writer
                    // whose updates superseded ours. Readers stay on the
                    // old epoch (stale-but-consistent) until it lands.
                    m.publish_cedes += 1;
                    return Ok(reports);
                }
                shadow = timed(&mut profile.pages_swap, || self.shadow(&m));
                drop(m);
                std::thread::sleep(Duration::from_micros(100 << round.min(6)));
                continue;
            }
            m.published_seq = shadow.seq;
            // Nobody published since the snapshot (`published_seq` was below
            // `shadow.seq`, which is the acknowledged state), so the live
            // epoch is still the shadow's base.
            let live = self.live_epoch.load(Ordering::Acquire);
            assert_eq!(ep.epoch, live + 1, "the shadow follows the live epoch");

            // Crash-safe publish protocol (only when a maintenance log is
            // attached): intent → checkpoint rename → done, each synced.
            let protocol = self.publish_files(&mut m, &ep);
            if protocol
                .as_ref()
                .is_err_and(|e| e.kind() == io::ErrorKind::Interrupted)
            {
                // Armed kill point: simulate the crash — no swap.
                return protocol.map(|()| reports);
            }

            let epoch = ep.epoch;
            *self.live.write().expect("live epoch lock") = Arc::new(ep);
            self.live_epoch.store(epoch, Ordering::Release);
            self.epoch_swaps.fetch_add(1, Ordering::Release);
            // The retired epoch goes here, outside the live lock (unless a
            // reader still pins it), and inside this publish's account.
            drop(shadow.base);
            // The maintenance state is at `shadow.seq` (checked above), so
            // the log holds nothing this epoch has not absorbed, and every
            // journaled update is in it.
            m.reweighted.clear();
            m.live_journal_len = m.wal.as_ref().map_or(0, UpdateJournal::len);
            profile.pages_swap += locked.elapsed();
            m.last_publish = profile;
            // A protocol I/O failure (not a kill point) still swaps: the
            // updates are journaled, so recovery replays them; only the
            // checkpoint shortcut is degraded. Surface the error.
            return protocol.map(|()| reports);
        }
        unreachable!("catch-up loop returns from within");
    }

    /// Phase timings of the last publish that swapped an epoch in (all zero
    /// before the first): which of maintain / hierarchy / labels /
    /// partitions / pages+swap a publish's latency is made of.
    pub fn last_publish_profile(&self) -> PublishProfile {
        self.maint().last_publish
    }

    /// The durable half of a publish: journal `publish-intent`, write the
    /// checkpoint of the epoch being published (temp + sync + atomic
    /// rename), journal `publish-done`.
    /// No-op without an attached maintenance log. Honors an armed kill
    /// point by returning `ErrorKind::Interrupted` at the boundary.
    fn publish_files(&self, m: &mut MaintState, ep: &EpochIndex) -> io::Result<()> {
        let (Some(wal), Some(dir)) = (m.wal.as_mut(), m.log_dir.as_ref()) else {
            return Ok(());
        };
        wal.append_control(JournalRecord::PublishIntent(ep.epoch as u32))?;
        check_kill(&mut m.kill_point, PublishKillPoint::AfterIntent)?;
        write_checkpoint(
            dir.join(CHECKPOINT_FILE),
            wal.len(),
            &ep.net,
            &ep.objects,
            &ep.index,
        )?;
        check_kill(&mut m.kill_point, PublishKillPoint::AfterRename)?;
        wal.append_control(JournalRecord::PublishDone(ep.epoch as u32))?;
        check_kill(&mut m.kill_point, PublishKillPoint::AfterDone)?;
        Ok(())
    }

    /// Arm a one-shot crash simulation: the next publish that reaches `kp`
    /// stops there — files on disk are exactly what a process killed at
    /// that boundary would leave (every prior step is synced), and the
    /// in-memory swap never happens. The interrupted
    /// [`Self::try_apply_updates`] returns `ErrorKind::Interrupted`. Test
    /// instrumentation for the recovery suite.
    pub fn arm_publish_kill_point(&self, kp: PublishKillPoint) {
        self.maint().kill_point = Some(kp);
    }

    /// Attach a maintenance log at `dir`: the live epoch's network and the
    /// objects are (re)written atomically as the base snapshot, and a
    /// write-ahead journal is created holding whatever updates were
    /// acknowledged but not yet published. From here on,
    /// [`Self::apply_updates`] journals before patching and every publish
    /// checkpoints the full state inside the intent/done protocol.
    ///
    /// Fails if `dir` already holds journaled history — that history is not
    /// reflected in this service; recover from it with [`Self::recover`]
    /// instead of silently shadowing it.
    pub fn attach_maintenance_log(&self, dir: impl AsRef<Path>) -> io::Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut m = self.maint();
        let live = self.snapshot();
        write_atomically(&dir.join(BASE_NET_FILE), |f| write_network(&live.net, f))?;
        write_atomically(&dir.join(BASE_OBJ_FILE), |f| {
            write_objects(&live.objects, f)
        })?;
        let (mut wal, existing) = UpdateJournal::open(dir.join(JOURNAL_FILE))?;
        if !existing.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "journal already holds records; use QueryService::recover",
            ));
        }
        let pending: Vec<EdgeUpdate> = m
            .reweighted
            .iter()
            .map(|&(a, b, _)| (a, b, m.net.edge_weight(a, b).expect("logged edge")))
            .collect();
        if !pending.is_empty() {
            wal.append(&pending)?;
        }
        m.wal = Some(wal);
        m.log_dir = Some(dir.to_path_buf());
        m.live_journal_len = 0;
        Ok(())
    }

    /// Snapshot the last published state (network, objects, index) into
    /// the attached maintenance log with the journal length it covers,
    /// atomically (write-temp-then-rename), outside the publish protocol.
    /// After a crash, recovery replays only the journal suffix past that
    /// length — acknowledged updates not yet published included.
    pub fn checkpoint(&self) -> io::Result<()> {
        let m = self.maint();
        let Some(dir) = m.log_dir.as_ref().filter(|_| m.wal.is_some()) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "no maintenance log attached",
            ));
        };
        // The live epoch cannot move while the maintenance lock is held.
        let live = self.snapshot();
        write_checkpoint(
            dir.join(CHECKPOINT_FILE),
            m.live_journal_len,
            &live.net,
            &live.objects,
            &live.index,
        )
    }

    /// Rebuild a consistent service from whatever survives in a maintenance
    /// log directory, and re-attach the (tail-repaired) journal so the
    /// recovered service keeps journaling.
    ///
    /// The journal's longest valid prefix defines the recovered history —
    /// a torn tail is truncated, records past the tear are lost *as a
    /// whole* (never half-applied). If a checkpoint parses and does not
    /// claim more history than the journal holds, recovery starts from it
    /// and replays only the suffix; otherwise it starts from the base
    /// snapshot and replays everything. Replay sets the weights on the
    /// starting network, and the index is built once on the result (the
    /// checkpoint's is reused when nothing follows it). Either way the
    /// result is identical to a from-scratch rebuild over the surviving
    /// history (absolute-weight updates make replay idempotent), and the service
    /// lands on exactly one epoch: the last durably published one, plus one
    /// if acknowledged updates survived past it (a publish the crash tore —
    /// detectable as an `intent` without its `done` — never splits the
    /// state: the updates, not the markers, define it).
    pub fn recover(
        dir: impl AsRef<Path>,
        sig: &SignatureConfig,
        cfg: &ServiceConfig,
    ) -> Result<(Self, RecoveryReport), LoadError> {
        let dir = dir.as_ref();
        let (wal, records) = UpdateJournal::open(dir.join(JOURNAL_FILE))?;
        // Walk the survived prefix: updates define the state; publish
        // markers locate the durable epoch and any torn publish.
        let mut updates: Vec<EdgeUpdate> = Vec::new();
        let mut last_done_epoch = 0u64;
        let mut publishes = 0u64;
        let mut updates_since_done = 0u64;
        let mut intent_since_done = false;
        for rec in &records {
            match *rec {
                JournalRecord::Update(u) => {
                    updates.push(u);
                    updates_since_done += 1;
                }
                JournalRecord::PublishIntent(_) => intent_since_done = true,
                JournalRecord::PublishDone(e) => {
                    last_done_epoch = e as u64;
                    publishes += 1;
                    updates_since_done = 0;
                    intent_since_done = false;
                }
            }
        }
        let total_updates = updates.len() as u64;
        // Start from the checkpoint when it is trusted, else from the base
        // snapshot; either way the surviving updates go onto the network,
        // and the index is rebuilt once on the result — in the starting
        // index's category partition, so it categorises exactly like the
        // index maintenance would have carried there — unless nothing was
        // left to apply.
        let (mut net, objects, start, suffix) = match read_checkpoint(dir.join(CHECKPOINT_FILE)) {
            Ok(c) if c.journal_len <= records.len() as u64 => {
                let suffix: Vec<EdgeUpdate> = records[c.journal_len as usize..]
                    .iter()
                    .filter_map(|r| match r {
                        JournalRecord::Update(u) => Some(*u),
                        _ => None,
                    })
                    .collect();
                (c.net, c.objects, Ok(c.index), suffix)
            }
            _ => {
                // No usable checkpoint (absent, damaged, or ahead of the
                // surviving journal): base + full replay.
                let net = load_network(dir.join(BASE_NET_FILE))?;
                let objects = read_objects(std::fs::File::open(dir.join(BASE_OBJ_FILE))?, &net)?;
                let partition = sig.partition_for(&net, &objects);
                (net, objects, Err(partition), updates)
            }
        };
        // The service refuses such records before journaling them; one in
        // the log is damage, not history.
        if let Some(why) = inapplicable(&net, &suffix) {
            return Err(LoadError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("journal record: {why}"),
            )));
        }
        let from_checkpoint = start.is_ok();
        let replayed = suffix.len() as u64;
        for &(a, b, w) in &suffix {
            net.set_edge_weight(a, b, w);
        }
        // Land on exactly one epoch: the last durably published one, plus
        // one when acknowledged updates survived past it (they are part of
        // the recovered state, so the epoch must move).
        let epoch = last_done_epoch + u64::from(updates_since_done > 0);
        let ch = ContractionHierarchy::build(&net, &ChConfig::default());
        let index = match start {
            Ok(index) if suffix.is_empty() => index,
            start => {
                let partition = start.map_or_else(|p| p, |index| index.partition().clone());
                SignatureIndex::build_with_hierarchy(
                    &net,
                    &objects,
                    &sig.pinned_to(&partition),
                    &ch,
                )
            }
        };
        let oracle = Oracle::build(ch, &objects);
        let (ep, _) = EpochIndex::build(net.into(), objects.into(), index, oracle, cfg, sig, epoch);
        let svc = QueryService::serving(ep, cfg);
        {
            let mut m = svc.maint();
            m.live_journal_len = wal.len();
            m.wal = Some(wal);
            m.log_dir = Some(dir.to_path_buf());
        }
        Ok((
            svc,
            RecoveryReport {
                journal_records: total_updates,
                replayed,
                from_checkpoint,
                epoch,
                publishes,
                torn_publish: intent_since_done,
            },
        ))
    }

    /// Times a shadow build re-snapshotted because update batches landed
    /// mid-build (catch-up retries), and builds that exhausted the bounded
    /// loop and ceded publishing to a fresher writer.
    pub fn catchup_counts(&self) -> (u64, u64) {
        let m = self.maint();
        (m.catchup_retries, m.publish_cedes)
    }

    /// Records journaled so far (updates and publish markers), when a
    /// maintenance log is attached.
    pub fn journal_len(&self) -> Option<u64> {
        self.maint().wal.as_ref().map(UpdateJournal::len)
    }

    /// The maintenance state, locked.
    fn maint(&self) -> MutexGuard<'_, MaintState> {
        self.maint.lock().expect("maint lock")
    }
}
