//! The concurrent query engine: sharded session state, a worker-pool batch
//! executor, and zero-pause double-buffered index maintenance.
//!
//! # Sharding
//!
//! Query sessions ([`SessionState`]: buffer pool, decode cache, counters)
//! are striped across `S` shards ([`dsi_storage::Striped`]). A query is
//! routed by [`Query::route_key`] (its query node; joins share a dedicated
//! key — a join below the last category's lower bound reads only the
//! index's object-pair table and no page), so repeated traffic near the
//! same location lands on the same shard's warm caches while unrelated
//! traffic proceeds in parallel. A worker holds the shard lock for the
//! whole query: it *takes* the parked [`SessionState`], resumes a
//! [`Session`] over it, executes, and parks the state back. Taking the
//! state outside the lock would let a second worker on the same shard spin
//! up a fresh state and fork the counters.
//!
//! # Epochs: double-buffered maintenance
//!
//! All index state a query can touch — network, signature index,
//! contraction hierarchy, partitioned indexes, and the session stripes over
//! them — lives in one immutable [`EpochIndex`] behind
//! `RwLock<Arc<EpochIndex>>`. [`QueryService::serve_batch`] clones the Arc
//! (a microsecond read-lock) and runs the *whole batch* against that pinned
//! snapshot: every query in the batch observes one consistent index state
//! end-to-end, no matter what maintenance does meanwhile.
//!
//! [`QueryService::apply_updates`] takes `&self`. Under the maintenance
//! mutex it only validates the batch, journals it and patches the
//! acknowledged network, logging every re-weighting since the live epoch.
//! Then, **with the lock dropped** — further update batches keep landing
//! while the shadow epoch builds — it derives the next epoch from the live
//! one: a *repair* of the hierarchy and hub labels
//! ([`ContractionHierarchy::repaired`], [`HubLabels::repaired`]: the order
//! is kept, only what the logged re-weightings could have changed is
//! redone); the signature index cloned and patched from the old and the
//! new labels ([`update_from_labels`]: the changed distances grown from the
//! re-weighted edges' endpoints, links re-derived around them — one change
//! feed, no spanning forest); a wholesale partition rebuild. A builder that
//! snapshotted behind a racing writer repairs from its own snapshot of the
//! live epoch and the log, and the writer that swaps its epoch in empties
//! the log. A bounded catch-up loop re-checks for updates that arrived
//! during the build (retry with backoff, then cede to the fresher writer),
//! and the finished epoch is published with an atomic swap (`Arc` flip +
//! epoch bump). Readers never block on maintenance; at worst they keep
//! answering from the previous epoch — every answer is element-wise equal
//! to *some* single serialized order of update batches. Every publish
//! leaves a [`PublishProfile`] behind — the wall time of its maintain /
//! hierarchy / labels / signature / partitions / pages+swap phases and how
//! many nodes were re-contracted and re-labelled — readable through
//! [`QueryService::last_publish_profile`] and printed by
//! [`QueryService::stats_dump`].
//!
//! Session stripes are per-epoch: a new epoch starts with cold stripes, so
//! a stale decode of a retired index is unreachable by construction (the
//! generation machinery in [`Session::resume`] remains as defense in
//! depth). An in-flight batch keeps its pinned epoch — and that epoch's
//! stripes — alive through the Arc until it completes.
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
//!
//! # Backends
//!
//! The default backend executes on the signature index; [`Backend::Sharded`]
//! routes the same node-anchored queries across K partitioned signature
//! indexes and serves joins, which have no anchor to route by, from the
//! epoch's single index. A self-join below the signature's last category
//! filters the index's exact object-pair table; from that bound on it runs
//! one range query per object. The two in-memory backends answer the same
//! queries on exact distance oracles the epoch always holds, through one
//! operator set (`exec.rs`): [`Backend::Dijkstra`] by incremental network
//! expansion (the paper's INE baseline) in a per-worker
//! [`dsi_graph::SsspWorkspace`], and [`Backend::HubLabel`] with no graph
//! search at all — hub labels extracted from the epoch's
//! contraction hierarchy plus the object hosts' labels inverted once per
//! epoch into distance-sorted buckets ([`LabelBuckets`]), so kNN is one
//! bounded scan ([`HubLabels::knn`]) and every self-join row one ε-bounded
//! scan ([`HubLabels::scan_within`]); range and aggregate still merge the
//! query node's label against every object's. All four return element-wise
//! identical results, the two paged backends up to the choice among objects
//! tied at the kNN cut.
//!
//! # Graceful degradation
//!
//! With a [`FaultPlan`] in the [`ServiceConfig`], every session stripe's
//! buffer pool injects deterministic read failures and corruptions on
//! physical reads. The single index's shards and the partitions' stripes run
//! one fault ladder: a failed attempt is retried (with bounded backoff) up to
//! the configured retry budget; past it the query is answered by the one
//! in-memory rung, the epoch's label oracle, which never touches the faulty
//! storage layer. A join below the last category reads no page, so no
//! fault reaches it. The answer is still exact, only the fast path was
//! skipped, and the query is tagged *degraded* in the [`BatchReport`]. A
//! stripe that degrades several queries in a row is *quarantined*: its
//! cached pages and decodes are dropped (counters survive, so batch deltas
//! stay monotone) and it restarts with a cold working set. Queries shed by
//! admission control land on the same rung.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use dsi_graph::ids::{max_weight, weight_in_domain};
use dsi_graph::io::{load_network, read_objects, write_network, write_objects, LoadError};
use dsi_graph::{Dist, NodeId, ObjectId, ObjectSet, RoadNetwork, INFINITY};
use dsi_hierarchy::{ChConfig, ContractionHierarchy, HubLabels, LabelBuckets};
use dsi_partition::PartitionedIndex;
use dsi_signature::query::aggregate::RangeAggregate;
use dsi_signature::query::join::try_self_epsilon_join;
use dsi_signature::update::{update_from_labels, UpdateReport};
use dsi_signature::{
    KnnResult, KnnType, OpResult, OpStats, Session, SessionState, SignatureConfig, SignatureIndex,
};
use dsi_storage::{FaultPlan, IoStats, PageFile, StoreMode, Striped, PAGE_SIZE};

use crate::exec::{self, Scratch};

use crate::journal::{
    read_checkpoint, write_atomically, write_checkpoint, EdgeUpdate, JournalRecord, UpdateJournal,
    BASE_NET_FILE, BASE_OBJ_FILE, CHECKPOINT_FILE, JOURNAL_FILE,
};
use crate::stats::{per_class_stats, BatchReport, PartStats};
use crate::workload::{Query, QueryClass};

/// Consecutive degraded queries on one stripe before it is quarantined.
const QUARANTINE_STRIKES: u32 = 3;

/// Rounds the shadow-epoch builder re-snapshots and rebuilds when update
/// batches land faster than it can catch up, before it cedes publishing to
/// the fresher writer (readers keep the old epoch meanwhile — the
/// degradation is staleness, never blocking).
const CATCHUP_ROUNDS: u32 = 4;

/// Which engine answers the queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The distance signature index (default).
    Signature,
    /// Incremental network expansion from the query node (INE baseline);
    /// per-worker workspace, no paging model.
    Dijkstra,
    /// Hub-label distance oracle, no graph search: kNN and the self
    /// ε-join are bounded scans of the epoch's distance-sorted object
    /// buckets (one from the query node's label, one per source object);
    /// range and aggregate are one sorted merge of two label arrays per
    /// object. Memory-resident, no paging model; the labels are extracted
    /// from the epoch's contraction hierarchy.
    HubLabel,
    /// The shard router over K partitioned signature indexes
    /// ([`ServiceConfig::partitions`]): each node-anchored query runs its
    /// home region's operators, and remote regions contribute through the
    /// boundary overlay's hub labels and the precomputed glue rows — no
    /// remote page is touched. A join has no anchor and runs on the epoch's
    /// single index. With `partitions ≤ 1` this degenerates to the plain
    /// signature path.
    Sharded,
}

impl Backend {
    /// Short label for reports and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Signature => "signature",
            Backend::Dijkstra => "ine",
            Backend::HubLabel => "hl",
            Backend::Sharded => "sharded",
        }
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Backend, String> {
        match s {
            "signature" | "sig" => Ok(Backend::Signature),
            "ine" | "dijkstra" => Ok(Backend::Dijkstra),
            "hl" | "hub-label" | "labels" => Ok(Backend::HubLabel),
            "sharded" | "partitioned" => Ok(Backend::Sharded),
            _ => Err(format!(
                "unknown backend {s:?} (valid: signature | ine | hl | sharded)"
            )),
        }
    }
}

/// Service sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Session shards. More shards → less contention, colder caches.
    /// 0 runs one shard.
    pub shards: usize,
    /// Buffer-pool pages per shard; the decode cache is sized off this
    /// (see [`SessionState::new`]). Sizing only moves fault counts and CPU
    /// time — logical page accesses are charged before either cache.
    pub pool_pages: usize,
    /// Storage fault injection applied to every shard's buffer pool (the
    /// default, [`FaultPlan::none`], injects nothing). Every shard runs the
    /// same deterministic plan stream, so a fault schedule is reproducible
    /// from the seed alone.
    pub fault_plan: FaultPlan,
    /// Times a query attempt is re-run after an injected storage fault
    /// before the service gives up on the fast path and answers on the
    /// epoch's exact label oracle.
    pub retry_budget: u32,
    /// Horizontal partitions. With `partitions > 1` every epoch
    /// additionally holds a [`dsi_partition::PartitionedIndex`] — K
    /// per-region signature indexes constructed in parallel — and
    /// [`Backend::Sharded`] routes queries across them; each partition gets
    /// its own session stripe with its own retry → degrade → quarantine
    /// ladder, so a fault storm in one region quarantines only that shard.
    /// `1` (the default) serves everything from the single index.
    pub partitions: usize,
    /// Physical page-store backend. [`StoreMode::Mem`] (the default) keeps
    /// the page model accounting-only; `File` materialises every epoch's
    /// page image as a real checksummed file and serves buffer misses with
    /// positioned reads; `Mmap` maps that file read-only instead. All three
    /// return element-wise identical answers and draw the same
    /// deterministic fault stream.
    pub store: StoreMode,
    /// Readahead window in pages for batched prefetch: a demand miss
    /// fetches the record's pages plus up to this many following pages in
    /// one coalesced physical read, and query operators prefetch their
    /// next frontier hop. `0` (the default) disables batching — every miss
    /// is a single-page read.
    pub readahead: u32,
    /// Per-query latency deadline in microseconds for SLO-aware admission
    /// control. When nonzero, the signature/sharded paths estimate each
    /// query's completion time (per-class EWMA + queue depth) and *shed*
    /// queries that would blow the deadline straight onto the exact
    /// in-memory label oracle — the answer stays exact, only the paged fast
    /// path is skipped. `0` (the default) admits everything.
    pub deadline_us: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 16,
            pool_pages: 64,
            fault_plan: FaultPlan::none(),
            retry_budget: 2,
            partitions: 1,
            store: StoreMode::Mem,
            readahead: 0,
            deadline_us: 0,
        }
    }
}

/// One query's result, mirroring [`Query`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryOutput {
    /// Objects within range.
    Range(Vec<ObjectId>),
    /// The k nearest objects with exact distances.
    Knn(Vec<KnnResult>),
    /// Aggregates over the range.
    Aggregate(RangeAggregate),
    /// Qualifying object pairs (`a < b`).
    Join(Vec<(ObjectId, ObjectId)>),
}

/// One session stripe — a shard of the single index or one partition's
/// stripe: the parked session state, the strike counter of its fault
/// ladder, and the queries it has served (reported per partition).
#[derive(Default)]
struct Stripe {
    state: Option<SessionState>,
    /// Consecutive queries this stripe answered via the degraded fallback;
    /// reaching [`QUARANTINE_STRIKES`] quarantines the stripe.
    strikes: u32,
    queries: u64,
}

/// The sharded-backend state: K per-region signature indexes plus one
/// session stripe per partition. Locking is by partition id, so a fault
/// storm (or quarantine) in one region never stalls or cools the others.
struct PartitionedEngine {
    pidx: PartitionedIndex,
    shards: Striped<Stripe>,
}

impl PartitionedEngine {
    fn build(net: &RoadNetwork, objects: &ObjectSet, sig: &SignatureConfig, k: usize) -> Self {
        let pidx = PartitionedIndex::build(net, objects, sig, k);
        let shards = Striped::new(pidx.num_parts(), |_| Stripe::default());
        PartitionedEngine { pidx, shards }
    }
}

/// An epoch's materialised page files (file and mmap store modes): the
/// main index image, plus one shared file covering the partitioned
/// indexes' disjoint page ranges when the epoch routes across partitions.
/// Dropping the epoch unlinks the files — sessions still holding open
/// descriptors keep reading the unlinked inodes until they retire, so an
/// in-flight batch on a superseded epoch never sees a vanished file.
struct EpochPages {
    index: Arc<PageFile>,
    parted: Option<Arc<PageFile>>,
}

impl EpochPages {
    /// Write (and reopen) the epoch's page images under the scratch
    /// directory. `None` when `store` is memory-only.
    fn materialize(
        store: StoreMode,
        epoch: u64,
        net: &RoadNetwork,
        index: &SignatureIndex,
        parted: Option<&PartitionedEngine>,
    ) -> Option<EpochPages> {
        if !store.is_backed() {
            return None;
        }
        let mapped = store == StoreMode::Mmap;
        let open = |tag: String, image: &[u8]| {
            let path = PageFile::scratch_path(&tag);
            PageFile::create(&path, image).expect("write epoch page file");
            Arc::new(PageFile::open(&path, mapped).expect("reopen epoch page file"))
        };
        let mut image = vec![0u8; index.page_image_bytes()];
        index.fill_page_image(net, &mut image);
        let main = open(format!("epoch{epoch}"), &image);
        let parted = parted.map(|pe| {
            // Region stores are rebased onto disjoint ranges of one shared
            // page-id space, so all K regions fill one image/file.
            let mut image = vec![0u8; pe.pidx.total_pages() as usize * PAGE_SIZE];
            for p in 0..pe.pidx.num_parts() {
                let region = pe.pidx.part(p);
                region.index.fill_page_image(&region.net, &mut image);
            }
            open(format!("epoch{epoch}p"), &image)
        });
        Some(EpochPages {
            index: main,
            parted,
        })
    }
}

impl Drop for EpochPages {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(self.index.path());
        if let Some(pf) = &self.parted {
            let _ = std::fs::remove_file(pf.path());
        }
    }
}

/// One immutable index generation: everything a query batch touches,
/// published wholesale by an `Arc` swap. Batches pin an epoch for their
/// entire run; the stripes (and the counters inside them) are per-epoch.
pub struct EpochIndex {
    epoch: u64,
    net: Arc<RoadNetwork>,
    objects: Arc<ObjectSet>,
    index: Arc<SignatureIndex>,
    /// The hierarchy and the hub labels extracted from it: the in-memory
    /// backends' oracles and the fault ladder's in-memory rung.
    oracle: Oracle,
    /// The object hosts' labels inverted into distance-sorted buckets, in
    /// object-id order — a bucket rank *is* an object id.
    buckets: LabelBuckets,
    parted: Option<PartitionedEngine>,
    shards: Striped<Stripe>,
    /// Backing page files, when the service runs a file-backed store mode.
    pages: Option<EpochPages>,
}

impl EpochIndex {
    /// The epoch number (0 for the initial build, bumped by each publish).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The road network this epoch serves.
    pub fn net(&self) -> &RoadNetwork {
        &self.net
    }

    /// The indexed object set (shared by every epoch — objects never move).
    pub fn objects(&self) -> &ObjectSet {
        &self.objects
    }

    /// The signature index this epoch serves.
    pub fn index(&self) -> &SignatureIndex {
        &self.index
    }

    /// The contraction hierarchy; always `Some`, every epoch holds one.
    pub fn hierarchy(&self) -> Option<&ContractionHierarchy> {
        Some(&self.oracle.ch)
    }

    /// The hub labels extracted from the hierarchy; always `Some`, every
    /// epoch holds them.
    pub fn hub_labels(&self) -> Option<&HubLabels> {
        Some(&self.oracle.hl)
    }

    /// Partitions the sharded backend routes across (1 for a single index).
    pub fn num_partitions(&self) -> usize {
        self.parted.as_ref().map_or(1, |pe| pe.pidx.num_parts())
    }

    /// Partition owning `node`, `None` when this epoch serves a single
    /// index.
    pub fn partition_of(&self, node: NodeId) -> Option<usize> {
        self.parted.as_ref().map(|pe| pe.pidx.part_of(node))
    }

    /// Visit every parked session state of this epoch: the single index's
    /// shards, then the partitions' stripes.
    fn for_each_state(&self, mut f: impl FnMut(&mut SessionState)) {
        let mut visit = |_: usize, stripe: &mut Stripe| {
            if let Some(state) = stripe.state.as_mut() {
                f(state);
            }
        };
        self.shards.for_each(&mut visit);
        if let Some(pe) = &self.parted {
            pe.shards.for_each(visit);
        }
    }

    /// Page-access counters summed over this epoch's shards (partition
    /// stripes included).
    pub fn merged_io_stats(&self) -> IoStats {
        let mut total = IoStats::default();
        self.for_each_state(|state| total += state.io_stats());
        total
    }

    /// Operation counters summed over this epoch's shards (partition
    /// stripes included).
    pub fn merged_op_stats(&self) -> OpStats {
        let mut total = OpStats::default();
        self.for_each_state(|state| total += state.op_stats());
        total
    }

    /// Per-partition query, I/O, and label-glue counters, in partition
    /// order. Empty when this epoch holds no partitioned indexes.
    pub fn per_partition_stats(&self) -> Vec<PartStats> {
        let Some(pe) = &self.parted else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(pe.shards.num_shards());
        pe.shards.for_each(|_, shard| {
            let (io, lookups) = shard.state.as_ref().map_or_else(Default::default, |s| {
                (s.io_stats(), s.op_stats().label_lookups)
            });
            out.push(PartStats {
                queries: shard.queries,
                io,
                label_lookups: lookups,
            });
        });
        out
    }
}

/// The maintenance state behind the mutex: the acknowledged network and
/// what separates it from the live epoch. Everything else a shadow epoch
/// needs — the signature index and the oracle it repairs — it takes from
/// the live epoch, which only a holder of this mutex swaps.
struct MaintState {
    /// The network with every acknowledged batch applied.
    net: RoadNetwork,
    /// Update batches acknowledged so far (process-local; the shadow
    /// builder uses it to detect falling behind).
    seq: u64,
    /// Highest `seq` whose epoch has been published (or claimed by a
    /// publishing writer) — prevents double-publishing one state.
    published_seq: u64,
    /// Write-ahead journal + its directory, when a maintenance log is
    /// attached.
    wal: Option<UpdateJournal>,
    log_dir: Option<PathBuf>,
    /// Journal records the live epoch's state covers: what
    /// [`QueryService::checkpoint`] records beside it.
    live_journal_len: u64,
    /// Every edge re-weighting acknowledged since the live epoch was
    /// swapped in, as `(a, b, weight before)`, oldest first — what separates
    /// the network the live epoch serves from `net`. A publish swaps at
    /// `seq` exactly, so swapping its epoch in empties the log.
    reweighted: Vec<(NodeId, NodeId, Dist)>,
    /// Phase timings of the last publish that swapped an epoch in.
    last_publish: PublishProfile,
}

/// A hierarchy and the hub labels built over it, shared by the epoch that
/// serves them and the maintenance state that repairs them next.
#[derive(Clone)]
struct Oracle {
    ch: Arc<ContractionHierarchy>,
    hl: Arc<HubLabels>,
}

/// Where the wall time of one publish ([`QueryService::try_apply_updates`])
/// went, phase by phase; the phases partition the call, so they sum to its
/// latency. Kept for the last publish that swapped an epoch in — see
/// [`QueryService::last_publish_profile`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PublishProfile {
    /// The part under the maintenance lock: validating the batch, the
    /// journal append and patching the acknowledged network.
    pub maintain: Duration,
    /// Contraction-hierarchy repair.
    pub hierarchy: Duration,
    /// Hub-label repair over that hierarchy plus the object buckets.
    pub labels: Duration,
    /// Signature repair from the old and the new labels: the index clone,
    /// the changed distances and links, re-encoding.
    pub signature: Duration,
    /// Partitioned-index rebuild (zero unless sharded).
    pub partitions: Duration,
    /// Everything else: the snapshot of the network the build works from,
    /// the crash-safe publish protocol's files, the page image, the swap.
    pub pages_swap: Duration,
    /// Nodes the hierarchy repair contracted afresh (the rest replayed
    /// their recorded step).
    pub ch_recontracted: usize,
    /// Labels the label repair ran through the builder again.
    pub labels_rebuilt: usize,
    /// Of those, the labels that came out different.
    pub labels_changed: usize,
}

impl PublishProfile {
    /// Sum of the phases: the publish's wall time.
    pub fn total(&self) -> Duration {
        self.maintain
            + self.hierarchy
            + self.labels
            + self.signature
            + self.partitions
            + self.pages_swap
    }
}

impl std::fmt::Display for PublishProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        write!(
            f,
            "{:.1} ms: maintain {:.1}, hierarchy {:.1}, labels {:.1}, signature {:.1}, \
             partitions {:.1}, pages+swap {:.1}; \
             {} nodes recontracted, {} labels rebuilt ({} changed)",
            ms(self.total()),
            ms(self.maintain),
            ms(self.hierarchy),
            ms(self.labels),
            ms(self.signature),
            ms(self.partitions),
            ms(self.pages_swap),
            self.ch_recontracted,
            self.labels_rebuilt,
            self.labels_changed
        )
    }
}

/// Run `f`, adding its wall time to `phase`.
fn timed<T>(phase: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *phase += t.elapsed();
    out
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

/// Thread-safe query engine over one road network + object set.
///
/// Owns the live [`EpochIndex`] plus the maintenance state;
/// serves read batches against pinned epoch snapshots and applies edge
/// updates concurrently through double-buffered epoch construction (see
/// module docs).
pub struct QueryService {
    /// The live epoch. Readers clone the Arc under a momentary read lock;
    /// the publish path swaps it under a momentary write lock. Nothing
    /// slow ever happens under this lock.
    live: RwLock<Arc<EpochIndex>>,
    /// Lock-free mirror of the live epoch number, for per-query staleness
    /// checks and `epoch()` without touching the RwLock.
    live_epoch: AtomicU64,
    /// The object set. Objects never move under edge-weight maintenance, so
    /// one shared copy serves every epoch.
    objects: Arc<ObjectSet>,
    maint: Mutex<MaintState>,
    /// Signature build configuration, kept for partitioned rebuilds.
    sig: SignatureConfig,
    num_shards: usize,
    pool_pages: usize,
    fault_plan: FaultPlan,
    retry_budget: u32,
    partitions: usize,
    store: StoreMode,
    readahead: u32,
    /// Per-query latency deadline in nanoseconds (0 = admission off).
    deadline_ns: u64,
    /// Queries shed by admission control onto the exact in-memory backend
    /// (still exact answers — distinct from fault-degraded queries).
    shed: AtomicU64,
    /// Completed queries whose measured latency exceeded the deadline.
    deadline_misses: AtomicU64,
    /// Per-class EWMA of fast-path latency in nanoseconds, indexed by
    /// [`QueryClass`] declaration order; 0 means no estimate yet.
    class_ewma: [AtomicU64; 4],
    /// Shards quarantined so far (cold-restarted after repeated degraded
    /// queries).
    quarantines: AtomicU64,
    /// Queries answered on the label oracle after their fast path
    /// exhausted its retry budget.
    degraded_queries: AtomicU64,
    /// Label lookups performed outside any session — the hub-label backend
    /// and the in-memory fallbacks (labels are memory-resident, so these
    /// never route through a shard's [`OpStats`]). One per bucket scan
    /// (one per kNN query, one per join source object) and one per `p2p`
    /// merge (one per object per range / aggregate query).
    hl_lookups: AtomicU64,
    /// Label and bucket entries those scans and merges walked.
    hl_entries: AtomicU64,
    /// Epochs published by the double-buffered maintenance path.
    epoch_swaps: AtomicU64,
    /// Queries that completed against a superseded epoch snapshot.
    stale_epoch_reads: AtomicU64,
    /// Times the shadow builder re-snapshotted because updates landed
    /// mid-build.
    catchup_retries: AtomicU64,
    /// Builds that exhausted [`CATCHUP_ROUNDS`] and ceded publishing to a
    /// fresher writer.
    publish_cedes: AtomicU64,
    /// Armed test kill point (consumed by the next publish that reaches
    /// it).
    kill_point: Mutex<Option<PublishKillPoint>>,
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
    /// Build the index over `net`/`objects` and wrap it in a service. The
    /// contraction hierarchy is built first and handed to the signature
    /// construction, which uses it for its distance evaluations (a build
    /// always uses a prebuilt hierarchy) — one preprocessing pass amortized
    /// across index build, the label oracle, and the fault ladder's
    /// in-memory rung.
    ///
    /// # Panics
    /// If an edge weight of `net` lies outside the weight domain
    /// ([`dsi_graph::ids::max_weight`]).
    pub fn new(
        net: RoadNetwork,
        objects: ObjectSet,
        sig: &SignatureConfig,
        cfg: &ServiceConfig,
    ) -> Self {
        let ch = ContractionHierarchy::build(&net, &ChConfig::default());
        let index = SignatureIndex::build_with_hierarchy(&net, &objects, sig, &ch);
        QueryService::assemble(net, objects, index, ch, cfg, sig.clone(), 0)
    }

    /// Wrap an already-built index (e.g. one loaded from a checkpoint) in a
    /// service. The contraction hierarchy and its labels are built from
    /// `net`, and every publish repairs `index` from them, so `index` must
    /// be consistent with `net`/`objects` as given. Partitioned indexes (when
    /// [`ServiceConfig::partitions`] > 1) are built with the default
    /// signature configuration; build through [`Self::new`] (or
    /// [`Self::recover`]) to carry a custom one.
    ///
    /// # Panics
    /// As [`Self::new`], on a weight outside the weight domain.
    pub fn from_parts(
        net: RoadNetwork,
        objects: ObjectSet,
        index: SignatureIndex,
        cfg: &ServiceConfig,
    ) -> Self {
        let ch = ContractionHierarchy::build(&net, &ChConfig::default());
        QueryService::assemble(net, objects, index, ch, cfg, SignatureConfig::default(), 0)
    }

    fn assemble(
        net: RoadNetwork,
        objects: ObjectSet,
        index: SignatureIndex,
        ch: ContractionHierarchy,
        cfg: &ServiceConfig,
        sig: SignatureConfig,
        epoch: u64,
    ) -> Self {
        if let Some((u, v, w)) = net.edge_out_of_domain() {
            panic!(
                "edge ({u}, {v}) weighs {w}, outside the weight domain: 1..={} or INFINITY",
                max_weight(net.num_nodes())
            );
        }
        let objects = Arc::new(objects);
        let parted = (cfg.partitions > 1)
            .then(|| PartitionedEngine::build(&net, &objects, &sig, cfg.partitions));
        let net_arc = Arc::new(net.clone());
        let pages = EpochPages::materialize(cfg.store, epoch, &net, &index, parted.as_ref());
        // The labels ride on the hierarchy: one extraction pass here backs
        // the hub-label backend and the fault ladder's in-memory rung.
        let oracle = Oracle {
            hl: Arc::new(HubLabels::build(&ch)),
            ch: Arc::new(ch),
        };
        let epoch0 = Arc::new(EpochIndex {
            epoch,
            net: net_arc,
            objects: objects.clone(),
            index: Arc::new(index),
            buckets: oracle.hl.buckets(objects.host_nodes()),
            oracle,
            parted,
            shards: Striped::new(cfg.shards, |_| Stripe::default()),
            pages,
        });
        QueryService {
            live: RwLock::new(epoch0),
            live_epoch: AtomicU64::new(epoch),
            objects,
            maint: Mutex::new(MaintState {
                net,
                seq: 0,
                published_seq: 0,
                wal: None,
                log_dir: None,
                live_journal_len: 0,
                reweighted: Vec::new(),
                last_publish: PublishProfile::default(),
            }),
            sig,
            num_shards: cfg.shards,
            pool_pages: cfg.pool_pages,
            fault_plan: cfg.fault_plan,
            retry_budget: cfg.retry_budget,
            partitions: cfg.partitions,
            store: cfg.store,
            readahead: cfg.readahead,
            deadline_ns: cfg.deadline_us.saturating_mul(1_000),
            shed: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            class_ewma: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
            quarantines: AtomicU64::new(0),
            degraded_queries: AtomicU64::new(0),
            hl_lookups: AtomicU64::new(0),
            hl_entries: AtomicU64::new(0),
            epoch_swaps: AtomicU64::new(0),
            stale_epoch_reads: AtomicU64::new(0),
            catchup_retries: AtomicU64::new(0),
            publish_cedes: AtomicU64::new(0),
            kill_point: Mutex::new(None),
        }
    }

    /// Pin the live epoch: the returned snapshot (and everything reachable
    /// from it) stays consistent for as long as the Arc is held, regardless
    /// of concurrent maintenance.
    pub fn snapshot(&self) -> Arc<EpochIndex> {
        self.live.read().expect("live epoch lock").clone()
    }

    /// The live epoch's road network (pin via [`Self::snapshot`] to keep a
    /// batch on one network).
    pub fn net(&self) -> Arc<RoadNetwork> {
        self.snapshot().net.clone()
    }

    /// The indexed object set (immutable across epochs).
    pub fn objects(&self) -> &ObjectSet {
        &self.objects
    }

    /// The live epoch's signature index.
    pub fn index(&self) -> Arc<SignatureIndex> {
        self.snapshot().index.clone()
    }

    /// The live epoch's contraction hierarchy.
    pub fn hierarchy(&self) -> Arc<ContractionHierarchy> {
        self.snapshot().oracle.ch.clone()
    }

    /// Current maintenance epoch (bumped by every publish).
    pub fn epoch(&self) -> u64 {
        self.live_epoch.load(Ordering::Acquire)
    }

    /// Serve a batch on the signature backend. See [`Self::serve_batch_on`].
    pub fn serve_batch(&self, queries: &[Query], workers: usize) -> BatchReport {
        self.serve_batch_on(Backend::Signature, queries, workers)
    }

    /// Execute `queries` on `workers` threads and return outputs in input
    /// order plus cost accounting.
    ///
    /// The batch pins the live epoch once, up front: every query executes
    /// against that one snapshot even if maintenance publishes newer epochs
    /// mid-batch (such completions are tallied in
    /// [`OpStats::stale_epoch_reads`]). Workers pull queries off a shared
    /// atomic cursor (dynamic load balancing: a worker stuck on a join
    /// doesn't stall the rest of the batch), execute each under its shard's
    /// lock, and report `(index, class, latency, output)` over a channel.
    /// Query *results* and merged *logical* page counts are
    /// schedule-independent (routing is deterministic and the pinned epoch
    /// is immutable); page *faults* and latencies depend on interleaving.
    pub fn serve_batch_on(
        &self,
        backend: Backend,
        queries: &[Query],
        workers: usize,
    ) -> BatchReport {
        let workers = workers.max(1);
        let ep = self.snapshot();
        let io_before = ep.merged_io_stats();
        let ops_before = ep.merged_op_stats();
        let hl_lookups_before = self.hl_lookups.load(Ordering::Relaxed);
        let hl_entries_before = self.hl_entries.load(Ordering::Relaxed);
        let parts_before = ep.per_partition_stats();
        let swaps_before = self.epoch_swaps.load(Ordering::Acquire);
        let stale_before = self.stale_epoch_reads.load(Ordering::Acquire);
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel();
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let cursor = &cursor;
                let ep = &ep;
                scope.spawn(move || {
                    let mut sc = Scratch::default();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(q) = queries.get(i) else { break };
                        let t0 = Instant::now();
                        // SLO-aware admission: on the paged backends, a
                        // query whose estimated completion time blows the
                        // deadline is shed straight onto the exact label
                        // oracle instead of queueing behind a slow storage
                        // path.
                        let paged = matches!(backend, Backend::Signature | Backend::Sharded);
                        let queued = queries.len() - i - 1;
                        let shed = paged && self.should_shed(q.class(), queued, workers);
                        let objects = &ep.objects;
                        let (out, degraded) = match backend {
                            _ if shed => (self.execute_labels(ep, q, &mut sc), false),
                            Backend::Signature => self.execute_signature(ep, q, &mut sc),
                            Backend::Sharded => self.execute_sharded(ep, q, &mut sc),
                            Backend::Dijkstra => {
                                let mut ine = exec::Dijkstra {
                                    net: &ep.net,
                                    objects,
                                    ws: &mut sc.sssp,
                                };
                                (exec::execute(&mut ine, objects, q), false)
                            }
                            Backend::HubLabel => (self.execute_labels(ep, q, &mut sc), false),
                        };
                        if self.live_epoch.load(Ordering::Relaxed) > ep.epoch {
                            // The pinned snapshot was superseded while this
                            // query ran: still consistent, just stale.
                            self.stale_epoch_reads.fetch_add(1, Ordering::Relaxed);
                        }
                        let ns = t0.elapsed().as_nanos() as u64;
                        if paged && !shed {
                            // Only fast-path completions train the
                            // estimator; shed queries ran in memory and
                            // would drag the estimate below reality.
                            self.note_latency(q.class(), ns);
                        }
                        tx.send((i, q.class(), ns, out, degraded, shed))
                            .expect("collector alive");
                    }
                });
            }
        });
        drop(tx);
        let wall = start.elapsed();
        let mut outputs: Vec<Option<QueryOutput>> = (0..queries.len()).map(|_| None).collect();
        let mut degraded = vec![false; queries.len()];
        let mut samples = Vec::with_capacity(queries.len());
        let mut shed_count = 0usize;
        let mut deadline_misses = 0usize;
        for (i, class, ns, out, deg, sh) in rx {
            samples.push((class, ns));
            outputs[i] = Some(out);
            degraded[i] = deg;
            shed_count += usize::from(sh);
            deadline_misses += usize::from(self.deadline_ns > 0 && ns > self.deadline_ns);
        }
        self.shed.fetch_add(shed_count as u64, Ordering::Relaxed);
        let degraded_count = degraded.iter().filter(|&&d| d).count();
        self.degraded_queries
            .fetch_add(degraded_count as u64, Ordering::Relaxed);
        self.deadline_misses
            .fetch_add(deadline_misses as u64, Ordering::Relaxed);
        let mut ops = ep.merged_op_stats() - ops_before;
        ops.epoch_swaps = self.epoch_swaps.load(Ordering::Acquire) - swaps_before;
        ops.stale_epoch_reads = self.stale_epoch_reads.load(Ordering::Acquire) - stale_before;
        // Sessionless label work (hub-label backend, in-memory fallbacks)
        // folds into the same counters the router glue charges per-session.
        ops.label_lookups += self.hl_lookups.load(Ordering::Relaxed) - hl_lookups_before;
        ops.label_entries_scanned += self.hl_entries.load(Ordering::Relaxed) - hl_entries_before;
        BatchReport {
            backend: backend.label(),
            outputs: outputs
                .into_iter()
                .map(|o| o.expect("every query executed"))
                .collect(),
            degraded,
            wall,
            workers,
            io: ep.merged_io_stats() - io_before,
            ops,
            per_part: ep
                .per_partition_stats()
                .into_iter()
                .zip(parts_before)
                .map(|(after, before)| after - before)
                .collect(),
            per_class: per_class_stats(samples),
            shed: shed_count,
            deadline_misses,
            deadline_ns: self.deadline_ns,
        }
    }

    /// Whether the admission estimator predicts a `class` query pulled now,
    /// with `queued` queries still waiting behind it on `workers` threads,
    /// would finish past the deadline. Conservative on cold estimators: a
    /// class with no completed fast-path sample yet is always admitted.
    fn should_shed(&self, class: QueryClass, queued: usize, workers: usize) -> bool {
        if self.deadline_ns == 0 {
            return false;
        }
        let mine = self.class_ewma[class as usize].load(Ordering::Relaxed);
        if mine == 0 {
            return false;
        }
        // Queue-depth term: the mean tracked fast-path latency is the drain
        // rate of the work still ahead of this query's completion.
        let (sum, n) = self.class_ewma.iter().fold((0u64, 0u64), |(s, n), e| {
            let v = e.load(Ordering::Relaxed);
            if v > 0 {
                (s + v, n + 1)
            } else {
                (s, n)
            }
        });
        let wait = (queued as u64 / workers.max(1) as u64).saturating_mul(sum / n.max(1));
        mine.saturating_add(wait) > self.deadline_ns
    }

    /// Fold one fast-path completion into the per-class latency EWMA
    /// (quarter-weight on the new sample; races just lose an update).
    fn note_latency(&self, class: QueryClass, ns: u64) {
        let slot = &self.class_ewma[class as usize];
        let old = slot.load(Ordering::Relaxed);
        let next = if old == 0 { ns } else { (3 * old + ns) / 4 };
        slot.store(next, Ordering::Relaxed);
    }

    /// A cold session for a shard that has none yet, wired to the service's
    /// fault plan, readahead window, and (when file-backed) the epoch's
    /// page file.
    fn fresh_state(&self, file: Option<&Arc<PageFile>>) -> SessionState {
        let mut state = if self.fault_plan.is_active() {
            SessionState::with_fault_plan(self.pool_pages, self.fault_plan)
        } else {
            SessionState::new(self.pool_pages)
        };
        state.set_readahead(self.readahead);
        if let Some(file) = file {
            state.attach_file(Arc::clone(file));
        }
        state
    }

    /// Answer one query on the epoch's label oracle: the hub-label backend,
    /// and the one in-memory rung the shed and degraded paths land on — the
    /// answer is always exact, only the paged fast path is skipped. Label
    /// work is charged to the service-level counters (the labels are
    /// memory-resident — there is no session to charge).
    fn execute_labels(&self, ep: &EpochIndex, q: &Query, sc: &mut Scratch) -> QueryOutput {
        let mut labels = sc.labels(&ep.oracle.hl, &ep.buckets, &ep.objects);
        let out = exec::execute(&mut labels, &ep.objects, q);
        self.charge_labels(labels.lookups, labels.scanned);
        out
    }

    fn charge_labels(&self, lookups: u64, scanned: u64) {
        self.hl_lookups.fetch_add(lookups, Ordering::Relaxed);
        self.hl_entries.fetch_add(scanned, Ordering::Relaxed);
    }

    /// The fault ladder, on one session stripe: a storage fault aborts the
    /// attempt; the attempt is retried (bounded backoff; failed reads are
    /// never cached, so a retry re-draws the fault stream while keeping the
    /// pages it did read) up to the retry budget; past the budget the
    /// stripe notes the query degraded and `None` sends the caller to the
    /// label oracle. Repeated degradation quarantines the stripe: pages and
    /// decodes are dropped, counters survive. Strikes are per stripe, so a
    /// fault storm in one partition never cools another.
    fn ladder<'i, T>(
        &self,
        stripe: &mut Stripe,
        file: Option<&Arc<PageFile>>,
        resume: impl Fn(SessionState) -> Session<'i>,
        mut attempt: impl FnMut(&mut Session<'i>) -> OpResult<T>,
    ) -> Option<T> {
        stripe.queries += 1;
        let mut state = stripe
            .state
            .take()
            .unwrap_or_else(|| self.fresh_state(file));
        let mut tries = 0u32;
        loop {
            let mut sess = resume(state);
            let result = attempt(&mut sess);
            state = sess.suspend();
            match result {
                Ok(out) => {
                    stripe.strikes = 0;
                    stripe.state = Some(state);
                    return Some(out);
                }
                Err(_fault) if tries < self.retry_budget => {
                    tries += 1;
                    state.note_retry();
                    // Bounded exponential backoff — a stand-in for letting a
                    // real device recover; kept tiny so fault storms degrade
                    // throughput, not liveness.
                    std::thread::sleep(Duration::from_micros(20u64 << tries.min(6)));
                }
                Err(_fault) => {
                    state.note_degraded();
                    stripe.strikes += 1;
                    if stripe.strikes >= QUARANTINE_STRIKES {
                        state.quarantine();
                        stripe.strikes = 0;
                        self.quarantines.fetch_add(1, Ordering::Relaxed);
                    }
                    stripe.state = Some(state);
                    return None;
                }
            }
        }
    }

    /// Execute one query on the pinned epoch's signature index through its
    /// shard's fault ladder, returning the output and whether it was
    /// answered by the label oracle instead.
    fn execute_signature(
        &self,
        ep: &EpochIndex,
        q: &Query,
        sc: &mut Scratch,
    ) -> (QueryOutput, bool) {
        let answered = self.ladder(
            &mut ep.shards.lock(q.route_key()),
            ep.pages.as_ref().map(|pg| &pg.index),
            |state| Session::resume(&ep.index, &ep.net, state),
            |sess| try_execute_signature(sess, q),
        );
        match answered {
            Some(out) => (out, false),
            None => (self.execute_labels(ep, q, sc), true),
        }
    }

    /// Execute one query on the shard router over the pinned epoch's
    /// partitioned indexes.
    ///
    /// A node-anchored query locks its home partition's stripe only: the
    /// region operators run on that partition's session, and remote regions
    /// contribute through the boundary overlay's hub labels and the
    /// precomputed glue rows — no remote page is touched. A join is
    /// anchored at no node, so there is nothing to route: it runs on the
    /// epoch's single index, which every epoch holds and maintains.
    ///
    /// With [`ServiceConfig::partitions`] ≤ 1 there is nothing to route
    /// across and the query takes the literal single-index path.
    fn execute_sharded(&self, ep: &EpochIndex, q: &Query, sc: &mut Scratch) -> (QueryOutput, bool) {
        let (
            Some(pe),
            Query::Range { node, .. } | Query::Knn { node, .. } | Query::Aggregate { node, .. },
        ) = (&ep.parted, *q)
        else {
            return self.execute_signature(ep, q, sc);
        };
        let file = ep.pages.as_ref().and_then(|pg| pg.parted.as_ref());
        let p = pe.pidx.part_of(node);
        let answered = self.ladder(
            &mut pe.shards.lock_shard(p),
            file,
            |state| pe.pidx.resume(p, state),
            |sess| match *q {
                Query::Range { node, eps } => pe
                    .pidx
                    .try_range(sess, p, node, eps)
                    .map(QueryOutput::Range),
                Query::Knn { node, k } => pe.pidx.try_knn(sess, p, node, k).map(QueryOutput::Knn),
                Query::Aggregate { node, eps } => pe
                    .pidx
                    .try_aggregate(sess, p, node, eps)
                    .map(QueryOutput::Aggregate),
                Query::Join { .. } => unreachable!("joins run on the single index"),
            },
        );
        match answered {
            Some(out) => (out, false),
            None => (self.execute_labels(ep, q, sc), true),
        }
    }

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
    /// Three phases (see module docs):
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
    /// 2. **Build** (no locks): construct the shadow epoch from the
    ///    snapshot — hierarchy and label repair, the signature index
    ///    patched from the old and new labels, wholesale partition rebuild
    ///    — while readers keep serving the live epoch and further update
    ///    batches keep acknowledging.
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
            let mut m = self.maint.lock().expect("maint lock");
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

    /// Phase 2+3 of maintenance: build the shadow epoch off to the side,
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
            let base = &shadow.base;
            let was = &base.oracle;
            let (ch, recontracted) = timed(&mut profile.hierarchy, || {
                was.ch.repaired(&shadow.net, &shadow.reweighted)
            });
            let (hl, work) = timed(&mut profile.labels, || was.hl.repaired(&was.ch, &ch));
            profile.ch_recontracted += recontracted;
            profile.labels_rebuilt += work.rebuilt;
            profile.labels_changed += work.changed;
            let oracle = Oracle {
                ch: Arc::new(ch),
                hl: Arc::new(hl),
            };
            let buckets = timed(&mut profile.labels, || {
                oracle.hl.buckets(self.objects.host_nodes())
            });
            // The signature follows the labels: one change feed.
            let (index, mut reports) = timed(&mut profile.signature, || {
                let mut index = SignatureIndex::clone(&base.index);
                let edges: Vec<(NodeId, NodeId)> =
                    shadow.reweighted.iter().map(|&(a, b, _)| (a, b)).collect();
                let reports = update_from_labels(
                    &mut index,
                    &shadow.net,
                    (&was.hl, &base.buckets),
                    (&oracle.hl, &buckets),
                    &edges,
                );
                (Arc::new(index), reports)
            });
            let reports: Vec<UpdateReport> = reports.drain(mine.clone()).collect();
            let parted = (self.partitions > 1).then(|| {
                timed(&mut profile.partitions, || {
                    PartitionedEngine::build(&shadow.net, &self.objects, &self.sig, self.partitions)
                })
            });

            let mut m = self.maint.lock().expect("maint lock");
            let locked = Instant::now();
            if m.published_seq >= shadow.seq {
                // A fresher writer already published an epoch containing
                // this batch (its snapshot was taken after ours was
                // acknowledged). Nothing to do.
                return Ok(reports);
            }
            if m.seq != shadow.seq {
                // Batches landed while we built: re-snapshot and retry.
                self.catchup_retries.fetch_add(1, Ordering::Relaxed);
                if round + 1 == CATCHUP_ROUNDS {
                    // Catch-up exhausted: cede publishing to the writer
                    // whose updates superseded ours. Readers stay on the
                    // old epoch (stale-but-consistent) until it lands.
                    self.publish_cedes.fetch_add(1, Ordering::Relaxed);
                    return Ok(reports);
                }
                shadow = timed(&mut profile.pages_swap, || self.shadow(&m));
                drop(m);
                std::thread::sleep(Duration::from_micros(100 << round.min(6)));
                continue;
            }
            m.published_seq = shadow.seq;
            let next_epoch = self.live_epoch.load(Ordering::Acquire) + 1;

            // Crash-safe publish protocol (only when a maintenance log is
            // attached): intent → checkpoint rename → done, each synced.
            let protocol = self.publish_files(&mut m, next_epoch, &shadow.net, &index);
            if protocol
                .as_ref()
                .is_err_and(|e| e.kind() == io::ErrorKind::Interrupted)
            {
                // Armed kill point: simulate the crash — no swap.
                return protocol.map(|()| reports);
            }

            let pages = EpochPages::materialize(
                self.store,
                next_epoch,
                &shadow.net,
                &index,
                parted.as_ref(),
            );
            let ep = Arc::new(EpochIndex {
                epoch: next_epoch,
                net: shadow.net,
                objects: self.objects.clone(),
                index,
                oracle,
                buckets,
                parted,
                shards: Striped::new(self.num_shards, |_| Stripe::default()),
                pages,
            });
            *self.live.write().expect("live epoch lock") = ep;
            self.live_epoch.store(next_epoch, Ordering::Release);
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
        self.maint.lock().expect("maint lock").last_publish
    }

    /// The durable half of a publish: journal `publish-intent`, write the
    /// checkpoint of the epoch being published (temp + sync + atomic
    /// rename), journal `publish-done`.
    /// No-op without an attached maintenance log. Honors an armed kill
    /// point by returning `ErrorKind::Interrupted` at the boundary.
    fn publish_files(
        &self,
        m: &mut MaintState,
        epoch: u64,
        net: &RoadNetwork,
        index: &SignatureIndex,
    ) -> io::Result<()> {
        let MaintState { wal, log_dir, .. } = m;
        let (Some(wal), Some(dir)) = (wal.as_mut(), log_dir.as_ref()) else {
            return Ok(());
        };
        wal.append_control(JournalRecord::PublishIntent(epoch as u32))?;
        self.check_kill(PublishKillPoint::AfterIntent)?;
        write_checkpoint(
            dir.join(CHECKPOINT_FILE),
            wal.len(),
            net,
            &self.objects,
            index,
        )?;
        self.check_kill(PublishKillPoint::AfterRename)?;
        wal.append_control(JournalRecord::PublishDone(epoch as u32))?;
        self.check_kill(PublishKillPoint::AfterDone)?;
        Ok(())
    }

    /// Arm a one-shot crash simulation: the next publish that reaches `kp`
    /// stops there — files on disk are exactly what a process killed at
    /// that boundary would leave (every prior step is synced), and the
    /// in-memory swap never happens. The interrupted
    /// [`Self::try_apply_updates`] returns `ErrorKind::Interrupted`. Test
    /// instrumentation for the recovery suite.
    pub fn arm_publish_kill_point(&self, kp: PublishKillPoint) {
        *self.kill_point.lock().expect("kill point lock") = Some(kp);
    }

    /// Consume the armed kill point if it matches this boundary.
    fn check_kill(&self, at: PublishKillPoint) -> io::Result<()> {
        let mut armed = self.kill_point.lock().expect("kill point lock");
        if *armed == Some(at) {
            *armed = None;
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("publish kill point {at:?}"),
            ));
        }
        Ok(())
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
        let mut m = self.maint.lock().expect("maint lock");
        let mut net_bytes = Vec::new();
        write_network(&self.snapshot().net, &mut net_bytes)?;
        write_atomically(&dir.join(BASE_NET_FILE), |f| {
            io::Write::write_all(f, &net_bytes)
        })?;
        let mut obj_bytes = Vec::new();
        write_objects(&self.objects, &mut obj_bytes)?;
        write_atomically(&dir.join(BASE_OBJ_FILE), |f| {
            io::Write::write_all(f, &obj_bytes)
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
        let m = self.maint.lock().expect("maint lock");
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
            &self.objects,
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
        let svc = QueryService::assemble(net, objects, index, ch, cfg, sig.clone(), epoch);
        {
            let mut m = svc.maint.lock().expect("maint lock");
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

    /// Shards quarantined (cold-restarted) since the service was built.
    pub fn quarantine_count(&self) -> u64 {
        self.quarantines.load(Ordering::Relaxed)
    }

    /// Queries shed by admission control since the service was built.
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Completed queries that missed the deadline since the service was
    /// built (0 when no deadline is configured).
    pub fn deadline_miss_count(&self) -> u64 {
        self.deadline_misses.load(Ordering::Relaxed)
    }

    /// Degraded queries since the service was built: queries whose fast
    /// path exhausted its retry budget and that the epoch's label oracle
    /// answered instead — the sum of [`BatchReport::degraded_count`] over
    /// every batch served.
    pub fn hierarchy_fallback_count(&self) -> u64 {
        self.degraded_queries.load(Ordering::Relaxed)
    }

    /// Epochs published (atomic swaps) since the service was built.
    pub fn epoch_swap_count(&self) -> u64 {
        self.epoch_swaps.load(Ordering::Acquire)
    }

    /// Queries that completed against a superseded epoch snapshot since the
    /// service was built.
    pub fn stale_epoch_read_count(&self) -> u64 {
        self.stale_epoch_reads.load(Ordering::Acquire)
    }

    /// Times a shadow build re-snapshotted because update batches landed
    /// mid-build (catch-up retries), and builds that exhausted the bounded
    /// loop and ceded publishing to a fresher writer.
    pub fn catchup_counts(&self) -> (u64, u64) {
        (
            self.catchup_retries.load(Ordering::Relaxed),
            self.publish_cedes.load(Ordering::Relaxed),
        )
    }

    /// Records journaled so far (updates and publish markers), when a
    /// maintenance log is attached.
    pub fn journal_len(&self) -> Option<u64> {
        self.maint
            .lock()
            .expect("maint lock")
            .wal
            .as_ref()
            .map(|j| j.len())
    }

    /// Page-access counters summed over the live epoch's shards (partition
    /// stripes included). Counters are per-epoch: a publish starts the new
    /// epoch's stripes cold.
    pub fn merged_io_stats(&self) -> IoStats {
        self.snapshot().merged_io_stats()
    }

    /// Operation counters summed over the live epoch's shards (partition
    /// stripes included). Per-epoch, like [`Self::merged_io_stats`].
    pub fn merged_op_stats(&self) -> OpStats {
        self.snapshot().merged_op_stats()
    }

    /// Per-partition query, I/O, and label-glue counters for the live
    /// epoch, in partition order. Empty when the service holds no
    /// partitioned indexes ([`ServiceConfig::partitions`] ≤ 1).
    pub fn per_partition_stats(&self) -> Vec<PartStats> {
        self.snapshot().per_partition_stats()
    }

    /// Partitions the sharded backend routes across (1 when the service
    /// serves a single index).
    pub fn num_partitions(&self) -> usize {
        self.snapshot().num_partitions()
    }

    /// Partition owning `node` under the sharded backend, `None` when the
    /// service serves a single index.
    pub fn partition_of(&self, node: NodeId) -> Option<usize> {
        self.snapshot().partition_of(node)
    }

    /// Zero every live-epoch shard's counters, keeping caches warm.
    /// Partition stripes keep their cumulative query counts (they are
    /// deltas in [`BatchReport::per_part`] anyway) but zero their I/O and
    /// op counters.
    pub fn reset_stats(&self) {
        self.snapshot().for_each_state(SessionState::reset_stats);
    }

    /// One-line stats dump: epoch, the session stripes the epoch runs
    /// (`ServiceConfig::shards`, at least one), merged I/O and op counters (via
    /// their `Display` summaries), plus maintenance and quarantine counters
    /// when any moved.
    pub fn stats_dump(&self) -> String {
        let ep = self.snapshot();
        let mut s = format!(
            "epoch {} | {} shards | io: {} | ops: {}",
            ep.epoch,
            ep.shards.num_shards(),
            ep.merged_io_stats(),
            ep.merged_op_stats()
        );
        let Oracle { ch, hl } = &ep.oracle;
        s.push_str(&format!(
            " | hierarchy: {} arcs ({} shortcuts) | labels: {} entries (avg {:.1}/node, {} KiB) \
             + object buckets: {} entries ({} KiB)",
            ch.num_up_arcs(),
            ch.num_shortcuts(),
            hl.num_entries(),
            hl.avg_label_len(),
            hl.label_bytes() / 1024,
            ep.buckets.num_entries(),
            ep.buckets.bytes() / 1024
        ));
        let hl_lookups = self.hl_lookups.load(Ordering::Relaxed);
        if hl_lookups > 0 {
            s.push_str(&format!(
                " | {hl_lookups} label lookups ({} entries)",
                self.hl_entries.load(Ordering::Relaxed)
            ));
        }
        let swaps = self.epoch_swap_count();
        if swaps > 0 {
            let (retries, cedes) = self.catchup_counts();
            s.push_str(&format!(
                " | {swaps} epoch swaps ({} stale reads, {retries} catch-up retries, {cedes} cedes)",
                self.stale_epoch_read_count()
            ));
            s.push_str(&format!(" | last publish {}", self.last_publish_profile()));
        }
        let quarantines = self.quarantine_count();
        if quarantines > 0 {
            s.push_str(&format!(" | {quarantines} quarantines"));
        }
        let degraded = self.hierarchy_fallback_count();
        if degraded > 0 {
            s.push_str(&format!(" | {degraded} degraded queries"));
        }
        if self.store.is_backed() {
            s.push_str(&format!(" | store: {}", self.store.label()));
        }
        if self.deadline_ns > 0 {
            s.push_str(&format!(
                " | admission: {} shed, {} deadline misses (deadline {}µs)",
                self.shed_count(),
                self.deadline_miss_count(),
                self.deadline_ns / 1_000
            ));
        }
        if let Some(pe) = &ep.parted {
            s.push_str(&format!(
                " | {} partitions ({} boundary nodes)",
                pe.pidx.num_parts(),
                pe.pidx.num_boundary()
            ));
            for (p, ps) in ep.per_partition_stats().iter().enumerate() {
                s.push_str(&format!(
                    "\n  partition p{p}: {} queries | io: {} | {} label lookups",
                    ps.queries, ps.io, ps.label_lookups
                ));
            }
        }
        s
    }
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

/// Dispatch one query to the signature-index query processors, surfacing
/// injected storage faults instead of panicking.
fn try_execute_signature(sess: &mut Session<'_>, q: &Query) -> OpResult<QueryOutput> {
    Ok(match *q {
        Query::Range { node, eps } => QueryOutput::Range(sess.try_range(node, eps)?),
        Query::Knn { node, k } => QueryOutput::Knn(sess.try_knn(node, k, KnnType::Type1)?),
        Query::Aggregate { node, eps } => QueryOutput::Aggregate(sess.try_aggregate(node, eps)?),
        Query::Join { eps } => QueryOutput::Join(try_self_epsilon_join(sess, eps)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, WorkloadConfig, WorkloadMix};
    use dsi_graph::generate::{random_planar, PlanarConfig};
    use dsi_graph::INFINITY;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The pre-bucket hub-label executor, kept as the reference the bucket
    /// scans must reproduce element-wise: one `p2p` label merge per object
    /// per point query, one per object pair for the join.
    fn reference_hub_label(objects: &ObjectSet, hl: &HubLabels, q: &Query) -> QueryOutput {
        let within = |node: NodeId, eps: Dist| {
            objects.iter().filter_map(move |(o, host)| {
                let d = hl.p2p(node, host);
                (d != INFINITY && d <= eps).then_some((d, o))
            })
        };
        match *q {
            Query::Range { node, eps } => {
                QueryOutput::Range(within(node, eps).map(|(_, o)| o).collect())
            }
            Query::Knn { node, k } => {
                let mut found: Vec<(Dist, ObjectId)> = within(node, INFINITY).collect();
                found.sort_unstable();
                found.truncate(k);
                QueryOutput::Knn(
                    found
                        .into_iter()
                        .map(|(d, o)| KnnResult {
                            object: o,
                            dist: Some(d),
                        })
                        .collect(),
                )
            }
            Query::Aggregate { node, eps } => {
                QueryOutput::Aggregate(within(node, eps).map(|(d, _)| d).collect())
            }
            Query::Join { eps } => QueryOutput::Join(
                objects
                    .iter()
                    .flat_map(|(a, host)| {
                        within(host, eps)
                            .filter(move |&(_, b)| b > a)
                            .map(move |(_, b)| (a, b))
                    })
                    .collect(),
            ),
        }
    }

    fn small_service() -> QueryService {
        let mut rng = StdRng::seed_from_u64(31);
        let net = random_planar(
            &PlanarConfig {
                num_nodes: 400,
                ..Default::default()
            },
            &mut rng,
        );
        let objects = ObjectSet::uniform(&net, 0.06, &mut rng);
        QueryService::new(
            net,
            objects,
            &SignatureConfig::default(),
            &ServiceConfig::default(),
        )
    }

    #[test]
    fn bucket_scans_match_the_per_object_reference() {
        let svc = small_service();
        let ep = svc.snapshot();
        let objects = &ep.objects;

        // Bucket rank == object id: the buckets cover exactly the object
        // hosts, and each host's own row holds its object at distance 0.
        assert_eq!(ep.buckets.num_targets(), objects.len());
        for (o, host) in objects.iter() {
            assert_eq!(ep.buckets.row(host).first(), Some(&(o.0, 0)));
        }

        // Radii from "nothing qualifies" to "everything does"; k from 0
        // past |objects|.
        let mut batch = generate(
            &ep.net,
            &WorkloadConfig {
                mix: WorkloadMix {
                    join: 5,
                    ..Default::default()
                },
                eps_range: (0, 60),
                k_range: (0, objects.len() + 3),
                join_eps: 12,
                count: 400,
                ..Default::default()
            },
        );
        let node = objects.node_of(ObjectId(0));
        batch.push(Query::Range {
            node,
            eps: INFINITY,
        });
        batch.push(Query::Join { eps: INFINITY });
        let mut sc = Scratch::default();
        for q in &batch {
            assert_eq!(
                svc.execute_labels(&ep, q, &mut sc),
                reference_hub_label(objects, &ep.oracle.hl, q),
                "{q:?}"
            );
        }
    }
}
