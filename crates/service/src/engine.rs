//! The concurrent query engine: [`QueryService`], a worker-pool batch
//! executor over sharded session state and the live [`EpochIndex`].
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
//! [`dsi_signature::Session`] over it, executes, and parks the state back.
//! Taking the state outside the lock would let a second worker on the same
//! shard spin up a fresh state and fork the counters.
//!
//! # Epochs
//!
//! The live [`EpochIndex`] sits behind `RwLock<Arc<EpochIndex>>`.
//! [`QueryService::serve_batch`] clones the Arc (a microsecond read-lock)
//! and runs the *whole batch* against that pinned snapshot: every query in
//! the batch observes one consistent index state end-to-end, no matter
//! what maintenance publishes meanwhile (the `publish` module: a shell of
//! lock, catch-up loop, journal protocol and swap around
//! [`EpochIndex::repaired`]).
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
//! epoch into distance-sorted buckets ([`dsi_hierarchy::LabelBuckets`]), so
//! kNN is one bounded scan ([`dsi_hierarchy::HubLabels::knn`]) and every
//! self-join row one ε-bounded scan
//! ([`dsi_hierarchy::HubLabels::scan_within`]); range and aggregate still
//! merge the query node's label against every object's. All four return
//! element-wise identical results, the two paged backends up to the choice
//! among objects tied at the kNN cut. A failed or shed fast path lands on
//! the label oracle (the `ladder` and `admission` modules).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::Instant;

use dsi_graph::ids::max_weight;
use dsi_graph::{ObjectId, ObjectSet, RoadNetwork};
use dsi_hierarchy::{ChConfig, ContractionHierarchy};
use dsi_signature::query::aggregate::RangeAggregate;
use dsi_signature::{KnnResult, SessionState, SignatureConfig, SignatureIndex};
use dsi_storage::{FaultPlan, StoreMode};

use crate::epoch::{EpochIndex, Oracle, PublishProfile};
use crate::exec::Scratch;
use crate::publish::MaintState;
use crate::stats::{per_class_stats, BatchReport};
use crate::workload::Query;

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

/// Thread-safe query engine over one road network + object set.
///
/// Owns the live [`EpochIndex`] plus the maintenance state;
/// serves read batches against pinned epoch snapshots and applies edge
/// updates concurrently through double-buffered epoch construction (see
/// the `publish` module).
pub struct QueryService {
    /// The live epoch. Readers clone the Arc under a momentary read lock;
    /// the publish path swaps it under a momentary write lock. Nothing
    /// slow ever happens under this lock.
    pub(crate) live: RwLock<Arc<EpochIndex>>,
    /// Lock-free mirror of the live epoch number, for per-query staleness
    /// checks and `epoch()` without touching the RwLock.
    pub(crate) live_epoch: AtomicU64,
    /// The acknowledged network and the publish shell's state.
    pub(crate) maint: Mutex<MaintState>,
    /// The configuration every epoch of this service is built, repaired
    /// and served with.
    pub(crate) cfg: ServiceConfig,
    /// Queries shed by admission control onto the exact in-memory backend
    /// (still exact answers — distinct from fault-degraded queries).
    shed: AtomicU64,
    /// Completed queries whose measured latency exceeded the deadline.
    deadline_misses: AtomicU64,
    /// Per-class EWMA of fast-path latency in nanoseconds, indexed by
    /// [`QueryClass`](crate::QueryClass) declaration order; 0 means no
    /// estimate yet.
    pub(crate) class_ewma: [AtomicU64; 4],
    /// Shards quarantined so far (cold-restarted after repeated degraded
    /// queries).
    pub(crate) quarantines: AtomicU64,
    /// Queries answered on the label oracle after their fast path
    /// exhausted its retry budget.
    degraded_queries: AtomicU64,
    /// Label lookups performed outside any session — the hub-label backend
    /// and the in-memory fallbacks (labels are memory-resident, so these
    /// never route through a shard's [`dsi_signature::OpStats`]). One per
    /// bucket scan (one per kNN query, one per join source object) and one
    /// per `p2p` merge (one per object per range / aggregate query).
    pub(crate) hl_lookups: AtomicU64,
    /// Label and bucket entries those scans and merges walked.
    pub(crate) hl_entries: AtomicU64,
    /// Epochs published by the double-buffered maintenance path.
    pub(crate) epoch_swaps: AtomicU64,
    /// Queries that completed against a superseded epoch snapshot.
    stale_epoch_reads: AtomicU64,
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
        let oracle = Oracle::build(ch, &objects);
        let (ep, _) = EpochIndex::build(net.into(), objects.into(), index, oracle, cfg, sig, 0);
        QueryService::serving(ep, cfg)
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
        let oracle = Oracle::build(ch, &objects);
        let sig = SignatureConfig::default();
        let (ep, _) = EpochIndex::build(net.into(), objects.into(), index, oracle, cfg, &sig, 0);
        QueryService::serving(ep, cfg)
    }

    /// A service whose live epoch is `ep`, with zeroed counters and no
    /// maintenance log.
    ///
    /// # Panics
    /// As [`Self::new`], on a weight outside the weight domain.
    pub(crate) fn serving(ep: EpochIndex, cfg: &ServiceConfig) -> Self {
        let net = ep.net.as_ref().clone();
        if let Some((u, v, w)) = net.edge_out_of_domain() {
            panic!(
                "edge ({u}, {v}) weighs {w}, outside the weight domain: 1..={} or INFINITY",
                max_weight(net.num_nodes())
            );
        }
        QueryService {
            live_epoch: AtomicU64::new(ep.epoch),
            live: RwLock::new(Arc::new(ep)),
            maint: Mutex::new(MaintState {
                net,
                seq: 0,
                published_seq: 0,
                wal: None,
                log_dir: None,
                live_journal_len: 0,
                reweighted: Vec::new(),
                last_publish: PublishProfile::default(),
                catchup_retries: 0,
                publish_cedes: 0,
                kill_point: None,
            }),
            cfg: *cfg,
            shed: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            class_ewma: Default::default(),
            quarantines: AtomicU64::new(0),
            degraded_queries: AtomicU64::new(0),
            hl_lookups: AtomicU64::new(0),
            hl_entries: AtomicU64::new(0),
            epoch_swaps: AtomicU64::new(0),
            stale_epoch_reads: AtomicU64::new(0),
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

    /// The indexed object set (immutable across epochs: every epoch shares
    /// one copy).
    pub fn objects(&self) -> Arc<ObjectSet> {
        self.snapshot().objects.clone()
    }

    /// The live epoch's signature index.
    pub fn index(&self) -> Arc<SignatureIndex> {
        self.snapshot().index.clone()
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
    /// [`dsi_signature::OpStats::stale_epoch_reads`]). Workers pull queries
    /// off a shared atomic cursor (dynamic load balancing: a worker stuck on
    /// a join doesn't stall the rest of the batch), execute each under its
    /// shard's lock, and report `(index, class, latency, output)` over a
    /// channel. Query *results* and merged *logical* page counts are
    /// schedule-independent (routing is deterministic and the pinned epoch
    /// is immutable); page *faults* and latencies depend on interleaving.
    pub fn serve_batch_on(
        &self,
        backend: Backend,
        queries: &[Query],
        workers: usize,
    ) -> BatchReport {
        let workers = workers.max(1);
        let deadline_ns = self.deadline_ns();
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
                        // oracle — answered as the hub-label backend
                        // answers it — instead of queueing behind a slow
                        // storage path.
                        let paged = matches!(backend, Backend::Signature | Backend::Sharded);
                        let queued = queries.len() - i - 1;
                        let shed = paged && self.should_shed(q.class(), queued, workers);
                        let on = if shed { Backend::HubLabel } else { backend };
                        let (out, degraded) = self.answer(ep, on, q, &mut sc);
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
            deadline_misses += usize::from(deadline_ns > 0 && ns > deadline_ns);
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
            deadline_ns,
        }
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

    /// Partitions the sharded backend routes across (1 when the service
    /// serves a single index).
    pub fn num_partitions(&self) -> usize {
        let ep = self.snapshot();
        ep.parted.as_ref().map_or(1, |pe| pe.pidx.num_parts())
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
        let Oracle { ch, hl, buckets } = &ep.oracle;
        s.push_str(&format!(
            " | hierarchy: {} arcs ({} shortcuts) | labels: {} entries (avg {:.1}/node, {} KiB) \
             + object buckets: {} entries ({} KiB)",
            ch.num_up_arcs(),
            ch.num_shortcuts(),
            hl.num_entries(),
            hl.avg_label_len(),
            hl.label_bytes() / 1024,
            buckets.num_entries(),
            buckets.bytes() / 1024
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
        if self.cfg.store.is_backed() {
            s.push_str(&format!(" | store: {}", self.cfg.store.label()));
        }
        let deadline_ns = self.deadline_ns();
        if deadline_ns > 0 {
            s.push_str(&format!(
                " | admission: {} shed, {} deadline misses (deadline {}µs)",
                self.shed_count(),
                self.deadline_miss_count(),
                deadline_ns / 1_000
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
