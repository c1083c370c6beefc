//! Basic operations on signatures (§3.2): distance retrieval, comparison,
//! and sorting, with page-access accounting.
//!
//! All operations run inside a [`Session`], which owns a buffer pool and
//! charges one record read (the merged adjacency+signature record, §3.1)
//! every time a node's signature is consulted. A small decode cache
//! (second-chance eviction) avoids re-decoding blobs that are certainly
//! buffer-resident.
//!
//! A session's mutable state (pool, decode cache, counters) can be detached
//! as a [`SessionState`] and re-attached later via [`Session::resume`]: the
//! concurrent query service keeps one `SessionState` per shard, parks it in
//! a mutex between batches, and resumes it under whatever worker thread
//! serves the shard next — warm caches and counters survive across batches
//! and even across index borrows (e.g. an update applied in between).
//! `SessionState` is `Send` (decoded signatures are shared via [`Arc`]), so
//! shard states may migrate freely between worker threads.

use std::collections::HashMap;
use std::sync::Arc;

use dsi_graph::network::Slot;
use dsi_graph::{Dist, NodeId, ObjectId, RoadNetwork};
use dsi_storage::{BufferPool, FaultPlan, IoStats, PageFile, PageId, StorageError};

use crate::category::{DistRange, RangeOrdering};
use crate::index::{DecodedSignature, SignatureIndex};

/// Result of a signature operation that charges page reads: with a
/// [`FaultPlan`] installed on the session's pool, any physical read may
/// fail with a [`StorageError`]. Without a plan, the error is impossible.
pub type OpResult<T> = Result<T, StorageError>;

/// Operation counters (CPU-side cost proxies).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Signature records read and decoded in full (logical).
    pub signature_reads: u64,
    /// Signature records read for an entry-granular decode (logical): same
    /// page charge as a full read, but only the target run is decoded.
    pub entry_reads: u64,
    /// Whole-node decode cache hits (tier 2), from either access path.
    pub decode_cache_hits: u64,
    /// Whole-node decode cache misses.
    pub decode_cache_misses: u64,
    /// Per-(node, object) entry cache hits (tier 1, entry path only).
    pub entry_cache_hits: u64,
    /// Per-(node, object) entry cache misses.
    pub entry_cache_misses: u64,
    /// Backtracking hops taken by retrievals.
    pub hops: u64,
    /// Exact comparisons performed.
    pub exact_comparisons: u64,
    /// Approximate (observer-vote) comparisons performed.
    pub approx_comparisons: u64,
    /// Observer votes cast.
    pub votes: u64,
    /// Query attempts re-run after an injected storage fault.
    pub retries: u64,
    /// Queries answered by the exact fallback backend after exhausting
    /// their retry budget (results stay exact; the fast path was skipped).
    pub degraded: u64,
    /// Hub-label lookups (`dsi-hierarchy` labels). The router's boundary
    /// glue counts one per label folded into or read out of its hub map;
    /// the service's hub-label backend counts one per source label scanned
    /// against the epoch's object buckets (one per kNN query, one per join
    /// source object) and one per point-to-point merge (one per object per
    /// range / aggregate query).
    pub label_lookups: u64,
    /// Individual `(hub, dist)` entries advanced over by those lookups: for
    /// a bucket scan, the source label's entries plus the bucket entries
    /// the bound let it walk.
    pub label_entries_scanned: u64,
    /// Index epochs published by double-buffered maintenance (`dsi-service`
    /// engine): each swap atomically replaced the live index snapshot while
    /// readers kept serving. Populated at the service layer — sessions never
    /// touch it.
    pub epoch_swaps: u64,
    /// Queries that completed against an epoch snapshot which had already
    /// been superseded by a newer publish (`dsi-service` engine). Such reads
    /// are still consistent — they observe one serialized batch order — the
    /// counter just measures how much traffic overlapped maintenance.
    /// Populated at the service layer.
    pub stale_epoch_reads: u64,
}

impl std::ops::Add for OpStats {
    type Output = OpStats;
    /// Counter-wise sum — merging per-shard counters into a total.
    fn add(self, rhs: OpStats) -> OpStats {
        OpStats {
            signature_reads: self.signature_reads + rhs.signature_reads,
            entry_reads: self.entry_reads + rhs.entry_reads,
            decode_cache_hits: self.decode_cache_hits + rhs.decode_cache_hits,
            decode_cache_misses: self.decode_cache_misses + rhs.decode_cache_misses,
            entry_cache_hits: self.entry_cache_hits + rhs.entry_cache_hits,
            entry_cache_misses: self.entry_cache_misses + rhs.entry_cache_misses,
            hops: self.hops + rhs.hops,
            exact_comparisons: self.exact_comparisons + rhs.exact_comparisons,
            approx_comparisons: self.approx_comparisons + rhs.approx_comparisons,
            votes: self.votes + rhs.votes,
            retries: self.retries + rhs.retries,
            degraded: self.degraded + rhs.degraded,
            label_lookups: self.label_lookups + rhs.label_lookups,
            label_entries_scanned: self.label_entries_scanned + rhs.label_entries_scanned,
            epoch_swaps: self.epoch_swaps + rhs.epoch_swaps,
            stale_epoch_reads: self.stale_epoch_reads + rhs.stale_epoch_reads,
        }
    }
}

impl std::ops::AddAssign for OpStats {
    fn add_assign(&mut self, rhs: OpStats) {
        *self = *self + rhs;
    }
}

impl std::ops::Sub for OpStats {
    type Output = OpStats;
    /// Counter delta (`later - earlier`) between two snapshots.
    fn sub(self, rhs: OpStats) -> OpStats {
        OpStats {
            signature_reads: self.signature_reads - rhs.signature_reads,
            entry_reads: self.entry_reads - rhs.entry_reads,
            decode_cache_hits: self.decode_cache_hits - rhs.decode_cache_hits,
            decode_cache_misses: self.decode_cache_misses - rhs.decode_cache_misses,
            entry_cache_hits: self.entry_cache_hits - rhs.entry_cache_hits,
            entry_cache_misses: self.entry_cache_misses - rhs.entry_cache_misses,
            hops: self.hops - rhs.hops,
            exact_comparisons: self.exact_comparisons - rhs.exact_comparisons,
            approx_comparisons: self.approx_comparisons - rhs.approx_comparisons,
            votes: self.votes - rhs.votes,
            retries: self.retries - rhs.retries,
            degraded: self.degraded - rhs.degraded,
            label_lookups: self.label_lookups - rhs.label_lookups,
            label_entries_scanned: self.label_entries_scanned - rhs.label_entries_scanned,
            epoch_swaps: self.epoch_swaps - rhs.epoch_swaps,
            stale_epoch_reads: self.stale_epoch_reads - rhs.stale_epoch_reads,
        }
    }
}

impl std::iter::Sum for OpStats {
    fn sum<I: Iterator<Item = OpStats>>(iter: I) -> OpStats {
        iter.fold(OpStats::default(), |a, b| a + b)
    }
}

/// One-line summary for stats dumps; retry/degraded counters appear only
/// when fault handling actually fired.
impl std::fmt::Display for OpStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} sig reads, {} hops, {} exact cmp, {} approx cmp, {} votes",
            self.signature_reads,
            self.hops,
            self.exact_comparisons,
            self.approx_comparisons,
            self.votes
        )?;
        if self.entry_reads > 0 {
            write!(f, ", {} entry reads", self.entry_reads)?;
        }
        if self.decode_cache_hits + self.decode_cache_misses > 0 {
            write!(
                f,
                ", decode cache {}/{}",
                self.decode_cache_hits,
                self.decode_cache_hits + self.decode_cache_misses
            )?;
        }
        if self.entry_cache_hits + self.entry_cache_misses > 0 {
            write!(
                f,
                ", entry cache {}/{}",
                self.entry_cache_hits,
                self.entry_cache_hits + self.entry_cache_misses
            )?;
        }
        if self.label_lookups > 0 {
            write!(
                f,
                ", {} label lookups ({} entries)",
                self.label_lookups, self.label_entries_scanned
            )?;
        }
        if self.retries > 0 {
            write!(f, ", {} retries", self.retries)?;
        }
        if self.degraded > 0 {
            write!(f, ", {} degraded", self.degraded)?;
        }
        if self.epoch_swaps > 0 {
            write!(f, ", {} epoch swaps", self.epoch_swaps)?;
        }
        if self.stale_epoch_reads > 0 {
            write!(f, ", {} stale-epoch reads", self.stale_epoch_reads)?;
        }
        Ok(())
    }
}

/// Decoded-signature cache with second-chance ("clock") eviction: each hit
/// sets a referenced bit; the clock hand sweeps slots, giving referenced
/// entries one more round before evicting. Backtracking walks re-touch the
/// same few nodes repeatedly, so wholesale `clear()`-style eviction would
/// throw the hot set away exactly when it is about to be re-used.
struct DecodeCache {
    /// node → slot index into `slots`.
    map: HashMap<NodeId, usize>,
    /// `(node, signature, referenced)`.
    slots: Vec<(NodeId, Arc<DecodedSignature>, bool)>,
    hand: usize,
    cap: usize,
}

impl DecodeCache {
    fn new(cap: usize) -> Self {
        DecodeCache {
            map: HashMap::new(),
            slots: Vec::new(),
            hand: 0,
            cap: cap.max(1),
        }
    }

    fn get(&mut self, n: NodeId) -> Option<Arc<DecodedSignature>> {
        let &i = self.map.get(&n)?;
        self.slots[i].2 = true;
        Some(Arc::clone(&self.slots[i].1))
    }

    /// Insert `n` (not already present), evicting one entry if full.
    fn insert(&mut self, n: NodeId, sig: Arc<DecodedSignature>) {
        debug_assert!(!self.map.contains_key(&n));
        if self.slots.len() < self.cap {
            self.map.insert(n, self.slots.len());
            self.slots.push((n, sig, false));
            return;
        }
        // Sweep: referenced entries get their bit cleared and survive this
        // pass; terminates within two sweeps.
        while self.slots[self.hand].2 {
            self.slots[self.hand].2 = false;
            self.hand = (self.hand + 1) % self.slots.len();
        }
        let victim = self.hand;
        self.map.remove(&self.slots[victim].0);
        self.map.insert(n, victim);
        self.slots[victim] = (n, sig, false);
        self.hand = (victim + 1) % self.slots.len();
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.hand = 0;
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.len()
    }

    #[cfg(test)]
    fn contains(&self, n: NodeId) -> bool {
        self.map.contains_key(&n)
    }
}

/// Tier-1 entry cache for the entry-decode path: a fixed, direct-mapped
/// array of decoded `(node, object) → (category, link)` entries. A
/// collision simply overwrites — no probing, no allocation, no eviction
/// bookkeeping on the hot path. Backtracking walks alternate between a
/// handful of (node, object) pairs, which is exactly the access pattern a
/// direct-mapped cache serves well.
struct EntryCache {
    slots: Vec<Option<(NodeId, ObjectId, u8, Slot)>>,
    mask: usize,
}

impl EntryCache {
    fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(64);
        EntryCache {
            slots: vec![None; cap],
            mask: cap - 1,
        }
    }

    #[inline]
    fn slot_of(&self, n: NodeId, o: ObjectId) -> usize {
        let h = ((n.0 as u64) << 32 | o.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h ^ (h >> 32)) as usize) & self.mask
    }

    #[inline]
    fn get(&self, n: NodeId, o: ObjectId) -> Option<(u8, Slot)> {
        match self.slots[self.slot_of(n, o)] {
            Some((cn, co, cat, link)) if cn == n && co == o => Some((cat, link)),
            _ => None,
        }
    }

    #[inline]
    fn put(&mut self, n: NodeId, o: ObjectId, cat: u8, link: Slot) {
        let s = self.slot_of(n, o);
        self.slots[s] = Some((n, o, cat, link));
    }

    fn clear(&mut self) {
        self.slots.fill(None);
    }
}

/// A [`Session`]'s mutable state, detached from the index borrow: buffer
/// pool, decode cache, and counters.
///
/// Owning this separately is what lets state outlive one borrow of the
/// index: a service shard keeps its `SessionState` across query batches
/// (and across `&mut` index maintenance in between), resuming it with
/// [`Session::resume`] when the next batch arrives. The state is `Send`,
/// so any worker thread may resume it.
pub struct SessionState {
    pool: BufferPool,
    cache: DecodeCache,
    entries: EntryCache,
    stats: OpStats,
    /// Readahead window in pages (0 = batched prefetch off).
    readahead: u32,
    /// Index generation the decode cache was filled under; compared against
    /// [`SignatureIndex::generation`] on [`Session::resume`], which clears
    /// the cache itself if the index was maintained while this state was
    /// parked. A missed invalidation is therefore impossible, not silent.
    generation: u64,
}

impl SessionState {
    /// Fresh state with a cold `pool_pages`-page buffer pool (the same
    /// sizing rule as [`Session::new`]).
    pub fn new(pool_pages: usize) -> Self {
        SessionState {
            pool: BufferPool::new(pool_pages),
            cache: DecodeCache::new(pool_pages.max(16) * 4),
            entries: EntryCache::new(pool_pages.max(16) * 64),
            stats: OpStats::default(),
            readahead: 0,
            generation: 0,
        }
    }

    /// Enable batched prefetch with a `pages`-page readahead window (0
    /// disables it — the default). With a window, record reads that miss
    /// the buffer fetch their pages plus the next `pages` store pages in
    /// coalesced physical calls, and the frontier hints
    /// ([`Session::prefetch_nodes`]) become active.
    pub fn set_readahead(&mut self, pages: u32) {
        self.readahead = pages;
    }

    /// Attach a real [`PageFile`] to the session's pool: every buffer miss
    /// now performs the physical read and CRC check (see
    /// [`BufferPool::attach_file`]).
    pub fn attach_file(&mut self, file: Arc<PageFile>) {
        self.pool.attach_file(file);
    }

    /// Fresh state whose buffer pool injects faults per `plan` (see
    /// [`FaultPlan`]).
    pub fn with_fault_plan(pool_pages: usize, plan: FaultPlan) -> Self {
        let mut s = SessionState::new(pool_pages);
        s.pool.set_fault_plan(plan);
        s
    }

    /// I/O counters of the parked buffer pool.
    pub fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// Operation counters accumulated so far.
    pub fn op_stats(&self) -> OpStats {
        self.stats
    }

    /// Drop cached decodes (the pool keeps its pages — page *identity* is
    /// still valid after maintenance, decoded *content* may not be).
    /// [`Session::resume`] does this automatically when the index
    /// generation moved; the method remains for callers that want to force
    /// a cold decode cache.
    pub fn invalidate_cache(&mut self) {
        self.cache.clear();
        self.entries.clear();
    }

    /// Count one fault-triggered retry of a query attempt.
    pub fn note_retry(&mut self) {
        self.stats.retries += 1;
    }

    /// Count one query answered by the exact fallback backend.
    pub fn note_degraded(&mut self) {
        self.stats.degraded += 1;
    }

    /// Quarantine support: drop cached pages *and* cached decodes but keep
    /// every counter — a poisoned shard restarts with a cold working set
    /// while batch deltas (computed from monotone counters) stay valid.
    pub fn quarantine(&mut self) {
        self.pool.drop_pages();
        self.cache.clear();
        self.entries.clear();
    }

    /// Zero I/O and operation counters, keeping caches warm.
    pub fn reset_stats(&mut self) {
        self.pool.reset_stats();
        self.stats = OpStats::default();
    }
}

/// A query session over a [`SignatureIndex`].
pub struct Session<'a> {
    index: &'a SignatureIndex,
    net: &'a RoadNetwork,
    pool: BufferPool,
    cache: DecodeCache,
    entries: EntryCache,
    readahead: u32,
    pub stats: OpStats,
}

impl<'a> Session<'a> {
    /// Usually obtained through [`SignatureIndex::session`].
    pub fn new(index: &'a SignatureIndex, net: &'a RoadNetwork, pool_pages: usize) -> Self {
        Session::resume(index, net, SessionState::new(pool_pages))
    }

    /// Re-attach a detached [`SessionState`] to the index: caches stay
    /// warm, counters keep accumulating.
    ///
    /// If the index was maintained while the state was parked (its
    /// [`generation`](SignatureIndex::generation) moved past the one the
    /// cache was filled under), the stale decode cache is cleared *here* —
    /// a caller forgetting to invalidate can no longer cause silent stale
    /// reads.
    pub fn resume(
        index: &'a SignatureIndex,
        net: &'a RoadNetwork,
        mut state: SessionState,
    ) -> Self {
        if state.generation != index.generation() {
            state.cache.clear();
            state.entries.clear();
        }
        Session {
            index,
            net,
            pool: state.pool,
            cache: state.cache,
            entries: state.entries,
            readahead: state.readahead,
            stats: state.stats,
        }
    }

    /// Detach this session's mutable state, releasing the index borrow.
    pub fn suspend(self) -> SessionState {
        SessionState {
            pool: self.pool,
            cache: self.cache,
            entries: self.entries,
            readahead: self.readahead,
            stats: self.stats,
            // Every decode cached in this session came from the index as it
            // is *now* (resume cleared anything older).
            generation: self.index.generation(),
        }
    }

    /// The underlying index.
    pub fn index(&self) -> &'a SignatureIndex {
        self.index
    }

    /// The road network.
    pub fn net(&self) -> &'a RoadNetwork {
        self.net
    }

    /// I/O counters of the session's buffer pool.
    pub fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// Reset I/O and operation counters (keeps the buffer warm).
    pub fn reset_stats(&mut self) {
        self.pool.reset_stats();
        self.stats = OpStats::default();
    }

    /// Drop buffer contents, caches and counters (cold start).
    pub fn cold_reset(&mut self) {
        self.pool.clear();
        self.cache.clear();
        self.entries.clear();
        self.stats = OpStats::default();
    }

    /// Enable batched prefetch with a `pages`-page readahead window (0
    /// disables it; see [`SessionState::set_readahead`]).
    pub fn set_readahead(&mut self, pages: u32) {
        self.readahead = pages;
    }

    /// Charge the record read for store record `id`, batching when a
    /// readahead window is configured: if any of the record's pages miss
    /// the buffer, the record's pages plus the next `readahead` pages of
    /// the store (the CCAM neighborhood the frontier is likely to touch)
    /// are fetched in coalesced physical calls first, and the demand read
    /// then hits. Batch failures propagate exactly like a failed demand
    /// read — one injected-fault draw per physical call, nothing cached —
    /// so the service's retry ladder sees the same error surface.
    fn fetch_record(&mut self, id: usize) -> Result<(), StorageError> {
        if self.readahead > 0 {
            let pages = self.index.store().pages_of(id);
            if pages.clone().any(|p| !self.pool.is_resident(p)) {
                let span = self.index.store().page_range();
                let end = pages.end.saturating_add(self.readahead).min(span.end);
                let want: Vec<PageId> = (pages.start..end).collect();
                self.pool.try_read_batch(&want)?;
            }
        }
        self.index.store().try_read(id, &mut self.pool)
    }

    /// Hint that the query frontier will touch `nodes` next: batch-fetch
    /// their records' non-resident pages in coalesced physical calls.
    /// Purely advisory — a no-op without a readahead window, and failures
    /// are swallowed (a failed batch caches nothing, and the demand read
    /// that follows draws its own fault outcome, so error surfacing is
    /// unchanged). Pages are sorted and deduplicated, making the physical
    /// schedule deterministic even when callers iterate hash maps.
    pub fn prefetch_nodes<I: IntoIterator<Item = NodeId>>(&mut self, nodes: I) {
        if self.readahead == 0 {
            return;
        }
        let store = self.index.store();
        let mut want: Vec<PageId> = nodes
            .into_iter()
            .flat_map(|n| store.pages_of(n.index()))
            .collect();
        want.sort_unstable();
        want.dedup();
        let _ = self.pool.try_read_batch(&want);
    }

    /// Read (and decode) node `n`'s signature, charging the page accesses.
    /// With a fault plan installed on the pool, the physical read may fail;
    /// nothing is decoded or cached in that case.
    pub fn try_read_signature(&mut self, n: NodeId) -> OpResult<Arc<DecodedSignature>> {
        self.fetch_record(n.index())?;
        self.stats.signature_reads += 1;
        if let Some(sig) = self.cache.get(n) {
            self.stats.decode_cache_hits += 1;
            return Ok(sig);
        }
        self.stats.decode_cache_misses += 1;
        let sig = Arc::new(self.index.decode_node(n));
        self.cache.insert(n, Arc::clone(&sig));
        Ok(sig)
    }

    /// Read the single signature entry `(n, o)` — `(category, link)` —
    /// charging the same record read as [`try_read_signature`] but decoding
    /// only the ≤K-entry run containing `o` (the skip-directory hot path).
    /// Serves from the per-entry cache (tier 1), then the whole-node decode
    /// cache (tier 2), before touching the blob; the entry path never
    /// *populates* tier 2 — point lookups must not evict whole-node decodes
    /// that classification scans rely on.
    pub fn try_read_entry(&mut self, n: NodeId, o: ObjectId) -> OpResult<(u8, Slot)> {
        self.fetch_record(n.index())?;
        self.stats.entry_reads += 1;
        if let Some(v) = self.entries.get(n, o) {
            self.stats.entry_cache_hits += 1;
            return Ok(v);
        }
        self.stats.entry_cache_misses += 1;
        if let Some(sig) = self.cache.get(n) {
            self.stats.decode_cache_hits += 1;
            let v = (sig.cats[o.index()], sig.links[o.index()]);
            self.entries.put(n, o, v.0, v.1);
            return Ok(v);
        }
        self.stats.decode_cache_misses += 1;
        let v = self.index.decode_entry(n, o);
        self.entries.put(n, o, v.0, v.1);
        Ok(v)
    }

    /// Batched [`try_read_entry`](Self::try_read_entry): one record read
    /// charges the whole request, targets sharing a run share decode work.
    /// A request covering `≥ D / K` objects takes a full decode instead —
    /// at that density a single sequential pass is cheaper than the
    /// per-run replays.
    pub fn try_read_entries(&mut self, n: NodeId, objs: &[ObjectId]) -> OpResult<Vec<(u8, Slot)>> {
        if objs.len() * self.index.skip_stride() >= self.index.num_objects() {
            let sig = self.try_read_signature(n)?;
            return Ok(objs
                .iter()
                .map(|o| (sig.cats[o.index()], sig.links[o.index()]))
                .collect());
        }
        self.fetch_record(n.index())?;
        self.stats.entry_reads += 1;
        if let Some(sig) = self.cache.get(n) {
            self.stats.decode_cache_hits += 1;
            return Ok(objs
                .iter()
                .map(|o| (sig.cats[o.index()], sig.links[o.index()]))
                .collect());
        }
        self.stats.decode_cache_misses += 1;
        let mut out = vec![(0u8, 0 as Slot); objs.len()];
        let mut missing = Vec::new();
        for (i, &o) in objs.iter().enumerate() {
            if let Some(v) = self.entries.get(n, o) {
                self.stats.entry_cache_hits += 1;
                out[i] = v;
            } else {
                self.stats.entry_cache_misses += 1;
                missing.push(i);
            }
        }
        if !missing.is_empty() {
            let req: Vec<ObjectId> = missing.iter().map(|&i| objs[i]).collect();
            let got = self.index.decode_entries(n, &req);
            for (j, &i) in missing.iter().enumerate() {
                out[i] = got[j];
                self.entries.put(n, objs[i], got[j].0, got[j].1);
            }
        }
        Ok(out)
    }

    /// Infallible [`try_read_signature`](Self::try_read_signature) for
    /// perfect-disk sessions (the default: no fault plan, no failures).
    pub fn read_signature(&mut self, n: NodeId) -> Arc<DecodedSignature> {
        self.try_read_signature(n)
            .expect("storage fault on a session without a fault plan")
    }

    /// Invalidate the decode and entry caches (after index maintenance).
    pub fn invalidate_cache(&mut self) {
        self.cache.clear();
        self.entries.clear();
    }

    /// §3.2.1 exact retrieval: follow the backtracking links from `n` to the
    /// object, accumulating edge weights — "the exact value of `d(n, a)` can
    /// be gradually approached and finally retrieved".
    pub fn try_retrieve_exact(&mut self, n: NodeId, a: ObjectId) -> OpResult<Dist> {
        let host = self.index.host(a);
        let mut cur = n;
        let mut acc: Dist = 0;
        let mut hops = 0usize;
        while cur != host {
            // Only `a`'s link matters per hop — an entry read, not a full
            // signature decode.
            let (_, link) = self.try_read_entry(cur, a)?;
            let (next, w) = self.net.neighbor_at(cur, link);
            acc += w;
            cur = next;
            self.stats.hops += 1;
            hops += 1;
            assert!(
                hops <= self.net.num_nodes(),
                "backtracking links do not reach {a} from {n}: index is stale"
            );
        }
        Ok(acc)
    }

    /// Infallible [`try_retrieve_exact`](Self::try_retrieve_exact).
    pub fn retrieve_exact(&mut self, n: NodeId, a: ObjectId) -> Dist {
        self.try_retrieve_exact(n, a)
            .expect("storage fault on a session without a fault plan")
    }

    /// Reconstruct the full shortest path from `n` to object `a` by
    /// following backtracking links (what "kNN queries with path
    /// information returned" need — the capability §1 faults NN lists for
    /// lacking). Returns the node sequence including both endpoints.
    pub fn try_path_to_object(&mut self, n: NodeId, a: ObjectId) -> OpResult<Vec<NodeId>> {
        let host = self.index.host(a);
        let mut path = vec![n];
        let mut cur = n;
        while cur != host {
            let (_, link) = self.try_read_entry(cur, a)?;
            let (next, _) = self.net.neighbor_at(cur, link);
            path.push(next);
            cur = next;
            self.stats.hops += 1;
            assert!(
                path.len() <= self.net.num_nodes(),
                "backtracking links do not reach {a} from {n}: index is stale"
            );
        }
        Ok(path)
    }

    /// §3.2.1 approximate retrieval `d̃(n, a, ∆)`: refine the distance range
    /// along the backtracking path just until it no longer *partially*
    /// intersects `delta` (it may end up inside `delta`, or disjoint from
    /// it, or exact).
    pub fn try_retrieve_approx(
        &mut self,
        n: NodeId,
        a: ObjectId,
        delta: DistRange,
    ) -> OpResult<DistRange> {
        let host = self.index.host(a);
        let mut cur = n;
        let mut acc: Dist = 0;
        loop {
            if cur == host {
                return Ok(DistRange::exact(acc));
            }
            let (cat, link) = self.try_read_entry(cur, a)?;
            let r = self.index.partition().range_of(cat).offset(acc);
            if !r.partially_intersects(&delta) {
                return Ok(r);
            }
            let (next, w) = self.net.neighbor_at(cur, link);
            acc += w;
            cur = next;
            self.stats.hops += 1;
        }
    }

    /// Infallible [`try_retrieve_approx`](Self::try_retrieve_approx).
    pub fn retrieve_approx(&mut self, n: NodeId, a: ObjectId, delta: DistRange) -> DistRange {
        self.try_retrieve_approx(n, a, delta)
            .expect("storage fault on a session without a fault plan")
    }

    /// §3.2.2 exact comparison (Algorithm 2): compare `d(n, a)` with
    /// `d(n, b)`, backtracking each side *in batches* only as far as needed
    /// to disambiguate.
    pub fn try_compare_exact(
        &mut self,
        n: NodeId,
        a: ObjectId,
        b: ObjectId,
    ) -> OpResult<std::cmp::Ordering> {
        self.stats.exact_comparisons += 1;
        let ent = self.try_read_entries(n, &[a, b])?;
        let (ca, cb) = (ent[0].0, ent[1].0);
        if ca != cb {
            // Algorithm 2, line 1–2: distinct categories decide directly.
            return Ok(ca.cmp(&cb));
        }
        let mut wa = Walker::start(self, n, a)?;
        let mut wb = Walker::start(self, n, b)?;
        loop {
            match wa.range.compare(&wb.range) {
                RangeOrdering::Less => return Ok(std::cmp::Ordering::Less),
                RangeOrdering::Greater => return Ok(std::cmp::Ordering::Greater),
                RangeOrdering::Equal => return Ok(std::cmp::Ordering::Equal),
                RangeOrdering::Ambiguous => {
                    // Refine whichever side still can, in a batch (I/O
                    // efficiency note of §3.2.2).
                    if !wa.range.is_exact() {
                        let target = wb.range;
                        wa.refine_until(self, &target)?;
                    } else {
                        let target = wa.range;
                        wb.refine_until(self, &target)?;
                    }
                }
            }
        }
    }

    /// Infallible [`try_compare_exact`](Self::try_compare_exact).
    pub fn compare_exact(&mut self, n: NodeId, a: ObjectId, b: ObjectId) -> std::cmp::Ordering {
        self.try_compare_exact(n, a, b)
            .expect("storage fault on a session without a fault plan")
    }

    /// §3.2.2 approximate comparison (Algorithm 3): decide the order of
    /// `d(n, a)` vs `d(n, b)` from `s(n)` alone by letting closer objects
    /// ("observers") vote in a 2-D embedding. Returns
    /// [`RangeOrdering::Equal`] when undecided.
    pub fn try_compare_approx(
        &mut self,
        n: NodeId,
        a: ObjectId,
        b: ObjectId,
    ) -> OpResult<RangeOrdering> {
        let sig = self.try_read_signature(n)?;
        let ca = sig.cats[a.index()].min(sig.cats[b.index()]);
        let observers: Vec<u32> = (0..self.index.num_objects() as u32)
            .filter(|&i| sig.cats[i as usize] < ca)
            .collect();
        self.compare_approx_with(n, a, b, &observers)
    }

    /// Infallible [`try_compare_approx`](Self::try_compare_approx).
    pub fn compare_approx(&mut self, n: NodeId, a: ObjectId, b: ObjectId) -> RangeOrdering {
        self.try_compare_approx(n, a, b)
            .expect("storage fault on a session without a fault plan")
    }

    /// [`compare_approx`](Self::compare_approx) with a precomputed observer
    /// candidate list (object ids with a smaller category than either
    /// operand). Sorting computes the list once per bucket instead of
    /// scanning the whole dataset per comparison.
    fn compare_approx_with(
        &mut self,
        n: NodeId,
        a: ObjectId,
        b: ObjectId,
        observers: &[u32],
    ) -> OpResult<RangeOrdering> {
        self.stats.approx_comparisons += 1;
        // One batched entry read covers both operands and every observer
        // candidate; under a wide observer set the Auto crossover turns
        // this into the old whole-signature decode.
        let mut req: Vec<ObjectId> = Vec::with_capacity(observers.len() + 2);
        req.push(a);
        req.push(b);
        req.extend(observers.iter().map(|&i| ObjectId(i)));
        let ent = self.try_read_entries(n, &req)?;
        let (ca, cb) = (ent[0].0, ent[1].0);
        if ca != cb {
            return Ok(if ca < cb {
                RangeOrdering::Less
            } else {
                RangeOrdering::Greater
            });
        }
        let part = self.index.partition();
        let shared = part.range_of(ca);
        if shared.hi == dsi_graph::INFINITY {
            return Ok(RangeOrdering::Equal); // open-ended category: no geometry
        }
        let Some(dab) = self.index.obj_dist().get(a, b) else {
            return Ok(RangeOrdering::Equal);
        };
        if dab == 0 {
            return Ok(RangeOrdering::Equal);
        }
        // Embed a at the origin and b on the x-axis; n, if it were
        // equidistant, would sit on the bisector x = dab/2 within the
        // feasible height interval [h_min, h_max] where the shared category
        // range still holds.
        let dab = dab as f64;
        let xm = dab / 2.0;
        let (lb, ub) = (shared.lo as f64, shared.hi as f64);
        if ub < xm {
            return Ok(RangeOrdering::Equal); // bisector unreachable within range
        }
        let h_min = (lb * lb - xm * xm).max(0.0).sqrt();
        let h_max = (ub * ub - xm * xm).sqrt();

        let (mut votes_a, mut votes_b) = (0u32, 0u32);
        for (j, &i) in observers.iter().enumerate() {
            let obs = ObjectId(i);
            let obs_cat = ent[j + 2].0;
            // Observers are the objects closer to n than a and b (line 3).
            if obs_cat >= ca || obs == a || obs == b {
                continue;
            }
            let (Some(dai), Some(dbi)) = (
                self.index.obj_dist().get(a, obs),
                self.index.obj_dist().get(b, obs),
            ) else {
                continue;
            };
            if dai == dbi {
                continue; // observer on the bisector itself: no information
            }
            let obs_range = part.range_of(obs_cat);
            if obs_range.hi == dsi_graph::INFINITY {
                continue;
            }
            let (dai, dbi) = (dai as f64, dbi as f64);
            // Triangulate the observer's embedded position.
            let cx = (dai * dai + dab * dab - dbi * dbi) / (2.0 * dab);
            let cy = (dai * dai - cx * cx).max(0.0).sqrt();
            let (dmin, dmax) = segment_distance_extrema(xm, h_min, h_max, cx, cy);
            self.stats.votes += 1;
            if dmax < obs_range.lo as f64 {
                // n is farther from the observer than the whole bisector:
                // it lies on the far side — the side of whichever object the
                // observer is *not* near.
                if dai < dbi {
                    votes_b += 1;
                } else {
                    votes_a += 1;
                }
            } else if dmin > obs_range.hi as f64 {
                // n is nearer to the observer than the bisector: near side.
                if dai < dbi {
                    votes_a += 1;
                } else {
                    votes_b += 1;
                }
            }
        }
        Ok(match votes_a.cmp(&votes_b) {
            std::cmp::Ordering::Greater => RangeOrdering::Less,
            std::cmp::Ordering::Less => RangeOrdering::Greater,
            std::cmp::Ordering::Equal => RangeOrdering::Equal,
        })
    }

    /// §3.2.3 distance sorting (Algorithm 4): an initial approximate order
    /// from observer votes, then a refinement pass that confirms each
    /// adjacent pair with exact comparison and bubbles misplacements
    /// backwards.
    ///
    /// Refinement state (the backtracking cursor and current range of each
    /// object) persists across the pass — the batching that §3.2.2 calls
    /// I/O-efficient. Without it, same-category objects would re-walk their
    /// shortest paths once per comparison and sorting a large boundary
    /// bucket would degrade quadratically.
    pub fn try_sort_objects(&mut self, n: NodeId, objs: &mut [ObjectId]) -> OpResult<()> {
        // Observer candidates: objects strictly closer than every operand.
        // Computed once — bucket sorts pass same-category objects, so this
        // is exactly Algorithm 3's observer set for every pair.
        // Observer discovery scans every object's category, so this is the
        // documented entry-decode crossover: one full signature read (which
        // also warms the tier-2 cache for the per-pair comparisons below).
        let observers: Vec<u32> = {
            let sig = self.try_read_signature(n)?;
            let min_cat = objs.iter().map(|o| sig.cats[o.index()]).min().unwrap_or(0);
            (0..self.index.num_objects() as u32)
                .filter(|&i| sig.cats[i as usize] < min_cat)
                .collect()
        };
        // Initial sorting. Approximate comparisons are not a total order,
        // so use insertion sort, which never requires transitivity.
        for i in 1..objs.len() {
            let mut j = i;
            while j > 0 {
                if self.compare_approx_with(n, objs[j - 1], objs[j], &observers)?
                    == RangeOrdering::Greater
                {
                    objs.swap(j - 1, j);
                    j -= 1;
                } else {
                    break;
                }
            }
        }
        // Refinement: exact confirmation with backward bubbling, sharing
        // one walker per object.
        let mut walkers = HashMap::with_capacity(objs.len());
        for &o in objs.iter() {
            walkers.insert(o, Walker::start(self, n, o)?);
        }
        self.prefetch_frontier(&walkers);
        let mut i = 0;
        while i + 1 < objs.len() {
            if self.compare_walkers(&mut walkers, objs[i], objs[i + 1])?
                == std::cmp::Ordering::Greater
            {
                objs.swap(i, i + 1);
                if i > 0 {
                    i -= 1;
                    continue;
                }
            }
            i += 1;
        }
        Ok(())
    }

    /// Infallible [`try_sort_objects`](Self::try_sort_objects).
    pub fn sort_objects(&mut self, n: NodeId, objs: &mut [ObjectId]) {
        self.try_sort_objects(n, objs)
            .expect("storage fault on a session without a fault plan")
    }

    /// Rearrange `objs` so that its first `j` elements are the `j` nearest
    /// to `n` (in no particular order) — the "choose the top `k − Σ|Bi|`
    /// objects" step of Algorithm 6 for type-3 queries, which need the
    /// result *set* only. Quickselect over exact comparisons with
    /// persistent walkers: only objects near the cut-off distance refine
    /// deeply; clearly-in and clearly-out objects separate from the pivot
    /// after a few backtracking steps.
    pub fn try_select_nearest(
        &mut self,
        n: NodeId,
        objs: &mut [ObjectId],
        j: usize,
    ) -> OpResult<()> {
        if j == 0 || j >= objs.len() {
            return Ok(());
        }
        let mut walkers = HashMap::with_capacity(objs.len());
        for &o in objs.iter() {
            walkers.insert(o, Walker::start(self, n, o)?);
        }
        self.prefetch_frontier(&walkers);
        let mut slice_start = 0usize;
        let mut slice_end = objs.len();
        let mut want = j;
        while slice_end - slice_start > 1 && want > 0 && want < slice_end - slice_start {
            let len = slice_end - slice_start;
            objs.swap(slice_start + len / 2, slice_end - 1);
            let pivot = objs[slice_end - 1];
            let mut store = slice_start;
            for i in slice_start..slice_end - 1 {
                if self.compare_walkers(&mut walkers, objs[i], pivot)?
                    != std::cmp::Ordering::Greater
                {
                    objs.swap(i, store);
                    store += 1;
                }
            }
            objs.swap(store, slice_end - 1);
            let left = store - slice_start; // elements ≤ pivot (pivot excluded)
            if want <= left {
                slice_end = store;
            } else if want == left + 1 {
                return Ok(()); // pivot closes the set exactly
            } else {
                want -= left + 1;
                slice_start = store + 1;
            }
        }
        Ok(())
    }

    /// Prefetch the node each unfinished walker will backtrack to next —
    /// the refinement frontier is known one hop ahead (every walker caches
    /// its outgoing link), so the whole frontier's pages coalesce into one
    /// batched read instead of one fault per walker step.
    fn prefetch_frontier(&mut self, walkers: &HashMap<ObjectId, Walker>) {
        if self.readahead == 0 {
            return;
        }
        let next: Vec<NodeId> = walkers
            .values()
            .filter(|w| !w.range.is_exact() && w.cur != w.host)
            .map(|w| self.net.neighbor_at(w.cur, w.link).0)
            .collect();
        self.prefetch_nodes(next);
    }

    /// Exact comparison over persistent walkers (each retains its
    /// refinement progress across calls).
    fn compare_walkers(
        &mut self,
        walkers: &mut HashMap<ObjectId, Walker>,
        a: ObjectId,
        b: ObjectId,
    ) -> OpResult<std::cmp::Ordering> {
        self.stats.exact_comparisons += 1;
        loop {
            let ra = walkers[&a].range;
            let rb = walkers[&b].range;
            match ra.compare(&rb) {
                RangeOrdering::Less => return Ok(std::cmp::Ordering::Less),
                RangeOrdering::Greater => return Ok(std::cmp::Ordering::Greater),
                RangeOrdering::Equal => return Ok(std::cmp::Ordering::Equal),
                RangeOrdering::Ambiguous => {
                    if !ra.is_exact() {
                        walkers
                            .get_mut(&a)
                            .expect("walker")
                            .refine_until(self, &rb)?;
                    } else {
                        walkers
                            .get_mut(&b)
                            .expect("walker")
                            .refine_until(self, &ra)?;
                    }
                }
            }
        }
    }
}

/// One side of an exact comparison: a cursor on the backtracking path from
/// `n` to an object, with the current refined distance range.
struct Walker {
    obj: ObjectId,
    host: NodeId,
    cur: NodeId,
    acc: Dist,
    range: DistRange,
    /// Backtracking link out of `cur` for `obj`, cached from the entry read
    /// that produced `range` — each refinement step then needs exactly one
    /// entry read (at the *next* node) instead of two signature reads.
    link: Slot,
    /// Steps taken; bounded by the node count to catch stale links (e.g.
    /// querying an object made unreachable by edge removals).
    steps: usize,
}

impl Walker {
    fn start(sess: &mut Session<'_>, n: NodeId, obj: ObjectId) -> OpResult<Self> {
        let (cat, link) = sess.try_read_entry(n, obj)?;
        let range = sess.index.partition().range_of(cat);
        let host = sess.index.host(obj);
        let mut w = Walker {
            obj,
            host,
            cur: n,
            acc: 0,
            range,
            link,
            steps: 0,
        };
        if n == host {
            w.range = DistRange::exact(0);
        }
        Ok(w)
    }

    /// Refine this side's range until it no longer partially intersects
    /// `target`, taking **at least one** backtracking step so the
    /// comparison loop always makes progress (two objects sharing the same
    /// category have mutually contained ranges, which must not stall the
    /// refinement).
    fn refine_until(&mut self, sess: &mut Session<'_>, target: &DistRange) -> OpResult<()> {
        loop {
            if self.range.is_exact() {
                return Ok(());
            }
            if self.cur == self.host {
                self.range = DistRange::exact(self.acc);
                return Ok(());
            }
            let (next, w) = sess.net.neighbor_at(self.cur, self.link);
            self.acc += w;
            self.cur = next;
            sess.stats.hops += 1;
            self.steps += 1;
            assert!(
                self.steps <= sess.net.num_nodes(),
                "backtracking links do not reach {} : index is stale or the \
                 object is unreachable",
                self.obj
            );
            if self.cur == self.host {
                self.range = DistRange::exact(self.acc);
            } else {
                let (cat, link) = sess.try_read_entry(self.cur, self.obj)?;
                self.link = link;
                self.range = sess.index.partition().range_of(cat).offset(self.acc);
            }
            if !self.range.partially_intersects(target) {
                return Ok(());
            }
        }
    }
}

/// Min and max Euclidean distance from point `(cx, cy)` to the two mirrored
/// bisector segments `{(xm, ±h) : h ∈ [h_min, h_max]}`.
fn segment_distance_extrema(xm: f64, h_min: f64, h_max: f64, cx: f64, cy: f64) -> (f64, f64) {
    let dx2 = (xm - cx) * (xm - cx);
    let d_at = |h: f64, sign: f64| (dx2 + (sign * h - cy) * (sign * h - cy)).sqrt();
    // Positive segment: minimum at h = clamp(cy, ..); negative segment: the
    // closest point to a cy ≥ 0 observer is h = h_min.
    let mut dmin = f64::INFINITY;
    let mut dmax = f64::NEG_INFINITY;
    for sign in [1.0f64, -1.0] {
        let h_best = if sign > 0.0 {
            cy.clamp(h_min, h_max)
        } else {
            (-cy).clamp(-h_max, -h_min).abs()
        };
        dmin = dmin.min(d_at(h_best, sign));
        dmax = dmax.max(d_at(h_min, sign)).max(d_at(h_max, sign));
    }
    (dmin, dmax)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{SignatureConfig, SignatureIndex};
    use dsi_graph::generate::{grid, random_planar, PlanarConfig};
    use dsi_graph::{sssp, ObjectSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> (RoadNetwork, ObjectSet, SignatureIndex) {
        let mut rng = StdRng::seed_from_u64(8);
        let net = random_planar(
            &PlanarConfig {
                num_nodes: 400,
                ..Default::default()
            },
            &mut rng,
        );
        let objects = ObjectSet::uniform(&net, 0.05, &mut rng);
        let idx = SignatureIndex::build(&net, &objects, &SignatureConfig::default());
        (net, objects, idx)
    }

    #[test]
    fn exact_retrieval_matches_dijkstra() {
        let (net, objects, idx) = fixture();
        let mut sess = idx.session(&net);
        let trees: Vec<_> = objects.iter().map(|(_, h)| sssp(&net, h)).collect();
        for n in net.nodes().step_by(17) {
            for (o, _) in objects.iter() {
                assert_eq!(
                    sess.retrieve_exact(n, o),
                    trees[o.index()].dist[n.index()],
                    "d({n}, {o})"
                );
            }
        }
    }

    #[test]
    fn exact_retrieval_at_host_is_zero() {
        let (net, objects, idx) = fixture();
        let mut sess = idx.session(&net);
        for (o, host) in objects.iter() {
            assert_eq!(sess.retrieve_exact(host, o), 0);
        }
    }

    #[test]
    fn approx_retrieval_brackets_truth_and_respects_delta() {
        let (net, objects, idx) = fixture();
        let mut sess = idx.session(&net);
        let trees: Vec<_> = objects.iter().map(|(_, h)| sssp(&net, h)).collect();
        for n in net.nodes().step_by(29) {
            for (o, _) in objects.iter() {
                let truth = trees[o.index()].dist[n.index()];
                for eps in [5u32, 50, 500] {
                    let delta = DistRange::new(eps, eps);
                    let r = sess.retrieve_approx(n, o, delta);
                    assert!(r.contains(truth), "range {r:?} must contain {truth}");
                    assert!(
                        !r.partially_intersects(&delta),
                        "returned range must be decisive w.r.t. ∆"
                    );
                }
            }
        }
    }

    #[test]
    fn approx_retrieval_costs_less_than_exact() {
        let (net, objects, idx) = fixture();
        let mut sess = idx.session(&net);
        // Pick a far object from node 0.
        let far = objects
            .iter()
            .max_by_key(|&(_, h)| sssp(&net, h).dist[0])
            .unwrap()
            .0;
        sess.reset_stats();
        let _ = sess.retrieve_approx(NodeId(0), far, DistRange::new(1, 1));
        let approx_hops = sess.stats.hops;
        sess.reset_stats();
        let _ = sess.retrieve_exact(NodeId(0), far);
        let exact_hops = sess.stats.hops;
        assert!(
            approx_hops < exact_hops,
            "approx {approx_hops} vs exact {exact_hops}"
        );
    }

    #[test]
    fn exact_comparison_agrees_with_distances() {
        let (net, objects, idx) = fixture();
        let mut sess = idx.session(&net);
        let trees: Vec<_> = objects.iter().map(|(_, h)| sssp(&net, h)).collect();
        for n in net.nodes().step_by(41) {
            for (a, _) in objects.iter() {
                for (b, _) in objects.iter() {
                    let da = trees[a.index()].dist[n.index()];
                    let db = trees[b.index()].dist[n.index()];
                    assert_eq!(
                        sess.compare_exact(n, a, b),
                        da.cmp(&db),
                        "compare d({n},{a})={da} vs d({n},{b})={db}"
                    );
                }
            }
        }
    }

    #[test]
    fn approx_comparison_never_contradicts_when_categories_differ() {
        let (net, objects, idx) = fixture();
        let mut sess = idx.session(&net);
        let trees: Vec<_> = objects.iter().map(|(_, h)| sssp(&net, h)).collect();
        for n in net.nodes().step_by(23) {
            let sig = sess.read_signature(n);
            for (a, _) in objects.iter() {
                for (b, _) in objects.iter() {
                    if sig.cats[a.index()] == sig.cats[b.index()] {
                        continue;
                    }
                    let got = sess.compare_approx(n, a, b);
                    let da = trees[a.index()].dist[n.index()];
                    let db = trees[b.index()].dist[n.index()];
                    match got {
                        RangeOrdering::Less => assert!(da < db),
                        RangeOrdering::Greater => assert!(da > db),
                        _ => panic!("distinct categories must decide"),
                    }
                }
            }
        }
    }

    #[test]
    fn approx_comparison_is_mostly_right_within_category() {
        // The observer vote is a heuristic; it may abstain or (rarely) be
        // wrong, but decided votes should be right far more often than not.
        let (net, objects, idx) = fixture();
        let mut sess = idx.session(&net);
        let trees: Vec<_> = objects.iter().map(|(_, h)| sssp(&net, h)).collect();
        let (mut right, mut wrong) = (0u32, 0u32);
        for n in net.nodes().step_by(7) {
            let sig = sess.read_signature(n);
            for (a, _) in objects.iter() {
                for (b, _) in objects.iter() {
                    if a >= b || sig.cats[a.index()] != sig.cats[b.index()] {
                        continue;
                    }
                    let da = trees[a.index()].dist[n.index()];
                    let db = trees[b.index()].dist[n.index()];
                    if da == db {
                        continue;
                    }
                    match sess.compare_approx(n, a, b) {
                        RangeOrdering::Less => {
                            if da < db {
                                right += 1;
                            } else {
                                wrong += 1;
                            }
                        }
                        RangeOrdering::Greater => {
                            if da > db {
                                right += 1;
                            } else {
                                wrong += 1;
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        assert!(
            right >= wrong * 2,
            "votes should be mostly right: {right} right vs {wrong} wrong"
        );
    }

    #[test]
    fn sorting_produces_exact_order() {
        let (net, objects, idx) = fixture();
        let mut sess = idx.session(&net);
        let trees: Vec<_> = objects.iter().map(|(_, h)| sssp(&net, h)).collect();
        for n in [NodeId(0), NodeId(123), NodeId(399)] {
            let mut objs: Vec<ObjectId> = objects.objects().collect();
            sess.sort_objects(n, &mut objs);
            for w in objs.windows(2) {
                assert!(
                    trees[w[0].index()].dist[n.index()] <= trees[w[1].index()].dist[n.index()],
                    "order violated at {n}: {:?}",
                    w
                );
            }
        }
    }

    #[test]
    fn select_nearest_finds_the_true_top_j() {
        let (net, objects, idx) = fixture();
        let mut sess = idx.session(&net);
        let trees: Vec<_> = objects.iter().map(|(_, h)| sssp(&net, h)).collect();
        for n in net.nodes().step_by(61) {
            let mut all: Vec<ObjectId> = objects.objects().collect();
            for j in [1usize, 3, all.len() / 2, all.len()] {
                let mut objs = all.clone();
                sess.try_select_nearest(n, &mut objs, j).unwrap();
                let mut got: Vec<u32> = objs[..j.min(objs.len())]
                    .iter()
                    .map(|o| trees[o.index()].dist[n.index()])
                    .collect();
                got.sort_unstable();
                let mut truth: Vec<u32> = all
                    .iter()
                    .map(|o| trees[o.index()].dist[n.index()])
                    .collect();
                truth.sort_unstable();
                truth.truncate(j);
                assert_eq!(got, truth, "node {n}, j={j}");
            }
            all.rotate_left(1); // vary input order a little
        }
    }

    #[test]
    fn select_nearest_costs_less_than_full_sort() {
        let (net, objects, idx) = fixture();
        let mut sess = idx.session(&net);
        let all: Vec<ObjectId> = objects.objects().collect();
        let n = NodeId(7);
        sess.cold_reset();
        let mut objs = all.clone();
        sess.try_select_nearest(n, &mut objs, 2).unwrap();
        let select_hops = sess.stats.hops;
        sess.cold_reset();
        let mut objs = all.clone();
        sess.sort_objects(n, &mut objs);
        let sort_hops = sess.stats.hops;
        assert!(
            select_hops <= sort_hops,
            "select {select_hops} vs sort {sort_hops}"
        );
    }

    #[test]
    fn path_to_object_is_a_shortest_path() {
        let (net, objects, idx) = fixture();
        let mut sess = idx.session(&net);
        let trees: Vec<_> = objects.iter().map(|(_, h)| sssp(&net, h)).collect();
        for n in net.nodes().step_by(53) {
            for (o, host) in objects.iter() {
                let path = sess.try_path_to_object(n, o).unwrap();
                assert_eq!(path.first(), Some(&n));
                assert_eq!(path.last(), Some(&host));
                let mut len = 0;
                for w in path.windows(2) {
                    len += net.edge_weight(w[0], w[1]).expect("path edges exist");
                }
                assert_eq!(len, trees[o.index()].dist[n.index()], "path length");
            }
        }
    }

    #[test]
    fn io_stats_accumulate_and_reset() {
        let (net, objects, idx) = fixture();
        let mut sess = idx.session(&net);
        let o = objects.objects().next().unwrap();
        sess.retrieve_exact(NodeId(1), o);
        assert!(sess.io_stats().logical > 0);
        // The retrieval hot path charges entry reads.
        assert!(sess.stats.entry_reads > 0);
        sess.reset_stats();
        assert_eq!(sess.io_stats().logical, 0);
        assert_eq!(sess.stats.signature_reads + sess.stats.entry_reads, 0);
    }

    fn dummy_sig() -> Arc<DecodedSignature> {
        Arc::new(DecodedSignature {
            cats: Vec::new(),
            links: Vec::new(),
            compressed: Vec::new(),
        })
    }

    #[test]
    fn decode_cache_never_exceeds_capacity() {
        let mut c = DecodeCache::new(4);
        for i in 0..20u32 {
            c.insert(NodeId(i), dummy_sig());
            assert!(c.len() <= 4);
        }
        assert_eq!(c.len(), 4);
        c.clear();
        assert_eq!(c.len(), 0);
        assert!(c.get(NodeId(19)).is_none());
    }

    #[test]
    fn decode_cache_second_chance_protects_hot_entries() {
        let mut c = DecodeCache::new(3);
        for i in 0..3u32 {
            c.insert(NodeId(i), dummy_sig());
        }
        // Touch node 1: its referenced bit shields it from the next sweeps.
        assert!(c.get(NodeId(1)).is_some());
        c.insert(NodeId(10), dummy_sig()); // evicts 0 (unreferenced)
        assert!(!c.contains(NodeId(0)), "cold entry evicted first");
        assert!(c.contains(NodeId(1)), "hot entry survives");
        c.insert(NodeId(11), dummy_sig()); // sweep spends 1's bit, evicts 2
        assert!(!c.contains(NodeId(2)));
        assert!(c.contains(NodeId(1)));
        // The hand is now past 1; it evicts 10, then — 1's second chance
        // spent and no re-touch — 1 itself.
        c.insert(NodeId(12), dummy_sig());
        assert!(!c.contains(NodeId(10)));
        c.insert(NodeId(13), dummy_sig());
        assert!(!c.contains(NodeId(1)));
        assert!(c.contains(NodeId(11)) && c.contains(NodeId(12)) && c.contains(NodeId(13)));
    }

    #[test]
    fn session_cache_returns_shared_decodes() {
        let (net, _objects, idx) = fixture();
        let mut sess = idx.session(&net);
        let a = sess.read_signature(NodeId(5));
        let b = sess.read_signature(NodeId(5));
        assert!(Arc::ptr_eq(&a, &b), "second read hits the decode cache");
        sess.invalidate_cache();
        let c = sess.read_signature(NodeId(5));
        assert!(!Arc::ptr_eq(&a, &c), "invalidation forces a re-decode");
        assert_eq!(a.cats, c.cats);
        assert_eq!(a.links, c.links);
    }

    #[test]
    fn suspend_resume_keeps_caches_and_counters() {
        let (net, objects, idx) = fixture();
        let o = objects.objects().next().unwrap();
        let mut sess = idx.session(&net);
        sess.retrieve_exact(NodeId(3), o);
        let sig_before = sess.read_signature(NodeId(3));
        let io_before = sess.io_stats();
        let hops_before = sess.stats.hops;

        let state = sess.suspend();
        assert_eq!(state.io_stats(), io_before);
        assert_eq!(state.op_stats().hops, hops_before);

        // `SessionState` must be Send so shard states can migrate between
        // worker threads.
        fn assert_send<T: Send>(_: &T) {}
        assert_send(&state);

        let mut sess = Session::resume(&idx, &net, state);
        // Warm decode cache survives the round trip.
        let sig_after = sess.read_signature(NodeId(3));
        assert!(Arc::ptr_eq(&sig_before, &sig_after));
        // Counters kept accumulating, not reset.
        assert!(sess.io_stats().logical > io_before.logical);
        assert_eq!(sess.stats.hops, hops_before);
    }

    #[test]
    fn suspended_state_can_invalidate_decodes() {
        let (net, _objects, idx) = fixture();
        let mut sess = idx.session(&net);
        let a = sess.read_signature(NodeId(5));
        let mut state = sess.suspend();
        state.invalidate_cache();
        let mut sess = Session::resume(&idx, &net, state);
        let b = sess.read_signature(NodeId(5));
        assert!(!Arc::ptr_eq(&a, &b), "invalidation forces a re-decode");
        assert_eq!(a.cats, b.cats);
    }

    #[test]
    fn narrow_requests_take_the_entry_path() {
        let (net, objects, idx) = fixture();
        let objs: Vec<ObjectId> = objects.objects().collect();
        // One object is below the D / K width at which a request decodes
        // the whole signature.
        assert!(idx.skip_stride() < idx.num_objects());
        let mut sess = idx.session(&net);
        let mut full = idx.session(&net);
        for n in net.nodes().step_by(37) {
            let sig = idx.decode_node(n);
            for &o in objs.iter().step_by(3) {
                let want = (sig.cats[o.index()], sig.links[o.index()]);
                assert_eq!(sess.try_read_entries(n, &[o]).unwrap(), vec![want]);
                assert_eq!(sess.try_read_entry(n, o).unwrap(), want);
                full.try_read_signature(n).unwrap();
                full.try_read_signature(n).unwrap();
            }
        }
        assert!(sess.stats.entry_reads > 0);
        assert_eq!(sess.stats.signature_reads, 0);
        // The directory buys CPU, not unaccounted I/O: an entry read
        // charges the same record read as a full one.
        assert_eq!(sess.io_stats().logical, full.io_stats().logical);
    }

    #[test]
    fn wide_requests_take_the_full_decode() {
        let (net, objects, idx) = fixture();
        let objs: Vec<ObjectId> = objects.objects().collect();
        let mut sess = idx.session(&net);
        for n in net.nodes().step_by(37) {
            let got = sess.try_read_entries(n, &objs).unwrap();
            let sig = idx.decode_node(n);
            for (i, o) in objs.iter().enumerate() {
                assert_eq!(got[i], (sig.cats[o.index()], sig.links[o.index()]));
            }
        }
        assert!(sess.stats.signature_reads > 0);
        assert_eq!(sess.stats.entry_reads, 0);
    }

    #[test]
    fn entry_cache_serves_repeat_lookups() {
        let (net, objects, idx) = fixture();
        let o = objects.objects().next().unwrap();
        let mut sess = idx.session(&net);
        let a = sess.try_read_entry(NodeId(2), o).unwrap();
        assert_eq!(sess.stats.entry_cache_misses, 1);
        let b = sess.try_read_entry(NodeId(2), o).unwrap();
        assert_eq!(a, b);
        assert_eq!(sess.stats.entry_cache_hits, 1);
        // Invalidation empties tier 1 as well as tier 2.
        sess.invalidate_cache();
        let c = sess.try_read_entry(NodeId(2), o).unwrap();
        assert_eq!(a, c);
        assert_eq!(sess.stats.entry_cache_misses, 2);
    }

    #[test]
    fn entry_path_reads_through_tier2_decode_cache() {
        let (net, objects, idx) = fixture();
        let o = objects.objects().next().unwrap();
        let mut sess = idx.session(&net);
        let sig = sess.read_signature(NodeId(9)); // populates tier 2
        let before = sess.stats.decode_cache_hits;
        let got = sess.try_read_entry(NodeId(9), o).unwrap();
        assert_eq!(got, (sig.cats[o.index()], sig.links[o.index()]));
        assert_eq!(sess.stats.decode_cache_hits, before + 1);
    }

    #[test]
    fn suspend_resume_keeps_the_entry_cache() {
        let (net, objects, idx) = fixture();
        let o = objects.objects().next().unwrap();
        let mut sess = idx.session(&net);
        sess.try_read_entry(NodeId(2), o).unwrap();
        let misses = sess.stats.entry_cache_misses;
        let state = sess.suspend();
        let mut sess = Session::resume(&idx, &net, state);
        sess.try_read_entry(NodeId(2), o).unwrap();
        assert_eq!(
            sess.stats.entry_cache_misses, misses,
            "warm entry cache survives the round trip"
        );
    }

    #[test]
    fn grid_exact_comparison_smoke() {
        // Deterministic small case: grid with two objects at opposite
        // corners; every node must order them by Manhattan distance.
        let net = grid(9, 9);
        let objects = ObjectSet::from_nodes(&net, vec![NodeId(0), NodeId(80)]);
        let idx = SignatureIndex::build(&net, &objects, &SignatureConfig::default());
        let mut sess = idx.session(&net);
        let (a, b) = (ObjectId(0), ObjectId(1));
        let ta = sssp(&net, NodeId(0));
        let tb = sssp(&net, NodeId(80));
        for n in net.nodes() {
            assert_eq!(
                sess.compare_exact(n, a, b),
                ta.dist[n.index()].cmp(&tb.dist[n.index()])
            );
        }
    }
}
