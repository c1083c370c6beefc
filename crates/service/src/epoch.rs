//! One index generation as a value.
//!
//! All index state a query can touch — network, signature index,
//! contraction hierarchy and hub labels, partitioned indexes, page files
//! and the session stripes over them — lives in one immutable
//! [`EpochIndex`], which the service publishes wholesale by an `Arc` swap.
//! Two functions make one, and neither takes a lock, starts a thread or
//! does I/O beyond writing the epoch's page image:
//!
//! * [`EpochIndex::build`] assembles an epoch around a signature index and
//!   its [`Oracle`] (the hierarchy, the hub labels extracted from it and
//!   the object hosts' labels inverted into distance-sorted buckets): the
//!   partitioned indexes, the page image and cold session stripes.
//! * [`EpochIndex::repaired`] is the paper's §5.4 maintenance as a function
//!   of the old epoch and the re-weighted edges. It *repairs* the hierarchy
//!   and the hub labels ([`ContractionHierarchy::repaired`],
//!   [`HubLabels::repaired`]: the order is kept, only what the
//!   re-weightings could have changed is redone), clones the signature
//!   index and patches it from the old and the new labels
//!   ([`update_from_labels`]: the changed distances grown from the
//!   re-weighted edges' endpoints, links re-derived around them — one
//!   change feed, no spanning forest), and hands the result to
//!   [`EpochIndex::build`], which rebuilds the partitions wholesale.
//!
//! Session stripes are per-epoch: a new epoch starts with cold stripes, so
//! a stale decode of a retired index is unreachable by construction (the
//! generation machinery in [`dsi_signature::Session::resume`] remains as
//! defense in depth). An in-flight batch keeps its pinned epoch — and that
//! epoch's stripes — alive through the `Arc` until it completes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dsi_graph::{Dist, NodeId, ObjectSet, RoadNetwork};
use dsi_hierarchy::{ContractionHierarchy, HubLabels, LabelBuckets};
use dsi_partition::PartitionedIndex;
use dsi_signature::update::{update_from_labels, UpdateReport};
use dsi_signature::{OpStats, SessionState, SignatureConfig, SignatureIndex};
use dsi_storage::{IoStats, PageFile, StoreMode, Striped, PAGE_SIZE};

use crate::engine::ServiceConfig;
use crate::stats::PartStats;

/// One session stripe — a shard of the single index or one partition's
/// stripe: the parked session state, the strike counter of its fault
/// ladder, and the queries it has served (reported per partition).
#[derive(Default)]
pub(crate) struct Stripe {
    pub(crate) state: Option<SessionState>,
    /// Consecutive queries this stripe answered via the degraded fallback;
    /// reaching the ladder's strike limit quarantines the stripe.
    pub(crate) strikes: u32,
    pub(crate) queries: u64,
}

/// The sharded-backend state: K per-region signature indexes plus one
/// session stripe per partition. Locking is by partition id, so a fault
/// storm (or quarantine) in one region never stalls or cools the others.
pub(crate) struct PartitionedEngine {
    pub(crate) pidx: PartitionedIndex,
    pub(crate) shards: Striped<Stripe>,
}

/// An epoch's materialised page files (file and mmap store modes): the
/// main index image, plus one shared file covering the partitioned
/// indexes' disjoint page ranges when the epoch routes across partitions.
/// Dropping the epoch unlinks the files — sessions still holding open
/// descriptors keep reading the unlinked inodes until they retire, so an
/// in-flight batch on a superseded epoch never sees a vanished file.
pub(crate) struct EpochPages {
    pub(crate) index: Arc<PageFile>,
    pub(crate) parted: Option<Arc<PageFile>>,
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

/// An epoch's exact distance oracles: the contraction hierarchy, the hub
/// labels extracted from it (the in-memory backends' oracle and the fault
/// ladder's in-memory rung), and the object hosts' labels inverted into
/// distance-sorted buckets, in object-id order — a bucket rank *is* an
/// object id.
pub(crate) struct Oracle {
    pub(crate) ch: ContractionHierarchy,
    pub(crate) hl: HubLabels,
    pub(crate) buckets: LabelBuckets,
}

impl Oracle {
    /// The labels over `ch` and the buckets of `objects`' hosts: one
    /// extraction pass backs the hub-label backend and the fault ladder.
    pub(crate) fn build(ch: ContractionHierarchy, objects: &ObjectSet) -> Oracle {
        let hl = HubLabels::build(&ch);
        let buckets = hl.buckets(objects.host_nodes());
        Oracle { ch, hl, buckets }
    }
}

/// Where the wall time of one publish went, phase by phase; the phases
/// partition the call, so they sum to its latency.
/// [`EpochIndex::repaired`] fills the hierarchy, labels, signature and
/// partitions phases and the page image's share of `pages_swap`; the
/// service adds the rest. Kept for the last publish that swapped an epoch
/// in — see [`crate::QueryService::last_publish_profile`].
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

impl std::ops::AddAssign for PublishProfile {
    fn add_assign(&mut self, o: PublishProfile) {
        self.maintain += o.maintain;
        self.hierarchy += o.hierarchy;
        self.labels += o.labels;
        self.signature += o.signature;
        self.partitions += o.partitions;
        self.pages_swap += o.pages_swap;
        self.ch_recontracted += o.ch_recontracted;
        self.labels_rebuilt += o.labels_rebuilt;
        self.labels_changed += o.labels_changed;
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
pub(crate) fn timed<T>(phase: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *phase += t.elapsed();
    out
}

/// One immutable index generation: everything a query batch touches,
/// published wholesale by an `Arc` swap. Batches pin an epoch for their
/// entire run; the stripes (and the counters inside them) are per-epoch.
pub struct EpochIndex {
    /// The epoch number (0 for the initial build, bumped by each publish).
    pub(crate) epoch: u64,
    pub(crate) net: Arc<RoadNetwork>,
    /// The indexed objects, shared by every epoch — objects never move.
    pub(crate) objects: Arc<ObjectSet>,
    pub(crate) index: Arc<SignatureIndex>,
    pub(crate) oracle: Oracle,
    pub(crate) parted: Option<PartitionedEngine>,
    pub(crate) shards: Striped<Stripe>,
    /// Backing page files, when the service runs a file-backed store mode.
    pub(crate) pages: Option<EpochPages>,
    /// The signature configuration the partitioned indexes are built with,
    /// carried to every epoch repaired from this one.
    sig: SignatureConfig,
}

impl EpochIndex {
    /// Epoch `epoch` over `net`, serving `index` and `oracle` (both over
    /// `net` and `objects`): the partitioned indexes when
    /// [`ServiceConfig::partitions`] > 1 (built with `sig`), the page image
    /// when the store is file-backed, and [`ServiceConfig::shards`] cold
    /// stripes. The profile holds the partitions phase and the page image's
    /// share of `pages_swap`.
    pub(crate) fn build(
        net: Arc<RoadNetwork>,
        objects: Arc<ObjectSet>,
        index: SignatureIndex,
        oracle: Oracle,
        cfg: &ServiceConfig,
        sig: &SignatureConfig,
        epoch: u64,
    ) -> (EpochIndex, PublishProfile) {
        let mut profile = PublishProfile::default();
        let parted = (cfg.partitions > 1).then(|| {
            timed(&mut profile.partitions, || {
                let pidx = PartitionedIndex::build(&net, &objects, sig, cfg.partitions);
                let shards = Striped::new(pidx.num_parts(), |_| Stripe::default());
                PartitionedEngine { pidx, shards }
            })
        });
        let pages = timed(&mut profile.pages_swap, || {
            EpochPages::materialize(cfg.store, epoch, &net, &index, parted.as_ref())
        });
        let ep = EpochIndex {
            epoch,
            net,
            objects,
            index: Arc::new(index),
            oracle,
            parted,
            shards: Striped::new(cfg.shards, |_| Stripe::default()),
            pages,
            sig: sig.clone(),
        };
        (ep, profile)
    }

    /// The next epoch: this one with the edges of `reweighted` — `(a, b,
    /// weight before)`, oldest first, every re-weighting between this
    /// epoch's network and `net` — at their weights in `net`. Returns it
    /// with one report per entry of `reweighted` and the time each phase
    /// took (`maintain` stays zero).
    pub(crate) fn repaired(
        &self,
        net: Arc<RoadNetwork>,
        reweighted: &[(NodeId, NodeId, Dist)],
        cfg: &ServiceConfig,
    ) -> (EpochIndex, Vec<UpdateReport>, PublishProfile) {
        let mut profile = PublishProfile::default();
        let was = &self.oracle;
        let (ch, recontracted) =
            timed(&mut profile.hierarchy, || was.ch.repaired(&net, reweighted));
        let (hl, work) = timed(&mut profile.labels, || was.hl.repaired(&was.ch, &ch));
        profile.ch_recontracted = recontracted;
        profile.labels_rebuilt = work.rebuilt;
        profile.labels_changed = work.changed;
        let buckets = timed(&mut profile.labels, || {
            hl.buckets(self.objects.host_nodes())
        });
        let oracle = Oracle { ch, hl, buckets };
        // The signature follows the labels: one change feed.
        let (index, reports) = timed(&mut profile.signature, || {
            let mut index = SignatureIndex::clone(&self.index);
            let edges: Vec<(NodeId, NodeId)> = reweighted.iter().map(|&(a, b, _)| (a, b)).collect();
            let reports = update_from_labels(
                &mut index,
                &net,
                (&was.hl, &was.buckets),
                (&oracle.hl, &oracle.buckets),
                &edges,
            );
            (index, reports)
        });
        let objects = Arc::clone(&self.objects);
        let (next, built) =
            EpochIndex::build(net, objects, index, oracle, cfg, &self.sig, self.epoch + 1);
        profile += built;
        (next, reports, profile)
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

    /// Partition owning `node`, `None` when this epoch serves a single
    /// index.
    pub fn partition_of(&self, node: NodeId) -> Option<usize> {
        self.parted.as_ref().map(|pe| pe.pidx.part_of(node))
    }

    /// Visit every parked session state of this epoch: the single index's
    /// shards, then the partitions' stripes.
    pub(crate) fn for_each_state(&self, mut f: impl FnMut(&mut SessionState)) {
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
    pub(crate) fn merged_io_stats(&self) -> IoStats {
        let mut total = IoStats::default();
        self.for_each_state(|state| total += state.io_stats());
        total
    }

    /// Operation counters summed over this epoch's shards (partition
    /// stripes included).
    pub(crate) fn merged_op_stats(&self) -> OpStats {
        let mut total = OpStats::default();
        self.for_each_state(|state| total += state.op_stats());
        total
    }

    /// Per-partition query, I/O, and label-glue counters, in partition
    /// order. Empty when this epoch holds no partitioned indexes.
    pub(crate) fn per_partition_stats(&self) -> Vec<PartStats> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Backend, QueryOutput, QueryService};
    use crate::exec::Scratch;
    use crate::workload::{generate, Query, Skew, WorkloadConfig, WorkloadMix};
    use dsi_graph::generate::{random_planar, PlanarConfig};
    use dsi_graph::{ObjectId, INFINITY};
    use dsi_signature::persist::write_index;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bytes(index: &SignatureIndex) -> Vec<u8> {
        let mut out = Vec::new();
        write_index(index, &mut out).expect("serialise to memory");
        out
    }

    /// One batch of `(a, b, weight)` re-weightings the service would accept:
    /// edges of `net`, weights in the weight domain — lowered, raised, or
    /// `INFINITY` (a closed road) where the network stays connected without
    /// the edge — applied to `net` as they are drawn. Returns the log entries
    /// `(a, b, weight before)`.
    fn reweigh(net: &mut RoadNetwork, rng: &mut StdRng) -> Vec<(NodeId, NodeId, Dist)> {
        let mut log = Vec::new();
        for _ in 0..rng.gen_range(1..=6) {
            let a = NodeId(rng.gen_range(0..net.num_nodes()) as u32);
            let Some((_, b, _)) = net
                .neighbors(a)
                .nth(rng.gen_range(0..net.degree(a).max(1) as usize))
            else {
                continue;
            };
            let w = match rng.gen_range(0..8) {
                0 => INFINITY,
                1 => 1,
                _ => rng.gen_range(1..=60),
            };
            let was = net.set_edge_weight(a, b, w);
            if net.is_connected() {
                log.push((a, b, was));
            } else {
                net.set_edge_weight(a, b, was);
            }
        }
        log
    }

    /// Every query class, with radii on both sides of the signature's last
    /// category lower bound (a self-join below it reads only the
    /// object-pair table) and past every distance.
    fn queries(net: &RoadNetwork, objects: &ObjectSet, last_lb: Dist) -> Vec<Query> {
        let mut batch = generate(
            net,
            &WorkloadConfig {
                mix: WorkloadMix {
                    join: 0,
                    ..Default::default()
                },
                skew: Skew::Uniform,
                eps_range: (0, 80),
                k_range: (1, objects.len() + 1),
                count: 60,
                seed: 5,
                ..Default::default()
            },
        );
        for eps in [0, 10, last_lb - 1, last_lb, INFINITY] {
            batch.push(Query::Join { eps });
        }
        let node = objects.node_of(ObjectId(0));
        batch.push(Query::Range {
            node,
            eps: INFINITY,
        });
        batch
    }

    /// What `svc` answers on each backend, through the per-query dispatch
    /// a batch worker runs, on this thread.
    fn answers(svc: &QueryService, batch: &[Query]) -> Vec<(Backend, QueryOutput)> {
        let ep = svc.snapshot();
        let mut sc = Scratch::default();
        let mut out = Vec::new();
        for backend in [Backend::Signature, Backend::HubLabel, Backend::Dijkstra] {
            for q in batch {
                let (answer, degraded) = svc.answer(&ep, backend, q, &mut sc);
                assert!(!degraded, "no fault plan, no degraded answer");
                out.push((backend, answer));
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `build(G0).repaired(u1)…repaired(uk)` is `build(Gk)` in G0's
        /// category partition: every backend answers every query class the
        /// same, and every signature and object-pair distance decodes the
        /// same. The repaired index also persists to the bytes
        /// `update_from_labels` writes when it is fed freshly built labels
        /// (a fresh build's encoding may compress differently where a
        /// repair left a node it did not touch). A repair step may absorb
        /// several batches at once, as a publish that caught up with racing
        /// writers does.
        #[test]
        fn a_chain_of_repairs_is_a_fresh_build(seed in 0u64..1 << 32, steps in 1usize..5) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut net = random_planar(
                &PlanarConfig {
                    num_nodes: 160,
                    ..Default::default()
                },
                &mut rng,
            );
            let objects = ObjectSet::uniform(&net, 0.1, &mut rng);
            let sig = SignatureConfig {
                parallel: false,
                ..SignatureConfig::default()
            };
            let cfg = ServiceConfig {
                shards: 2,
                ..ServiceConfig::default()
            };
            let epoch = |net: &RoadNetwork, sig: &SignatureConfig, at: u64| {
                let ch = ContractionHierarchy::build(net, &Default::default());
                let index = SignatureIndex::build_with_hierarchy(net, &objects, sig, &ch);
                let oracle = Oracle::build(ch, &objects);
                let objects = Arc::new(objects.clone());
                EpochIndex::build(Arc::new(net.clone()), objects, index, oracle, &cfg, sig, at).0
            };
            let mut chain = QueryService::serving(epoch(&net, &sig, 0), &cfg);
            let mut labelled = chain.snapshot();
            let mut by_labels = SignatureIndex::clone(labelled.index());
            let partition = by_labels.partition().clone();
            let pinned = sig.pinned_to(&partition);
            let batch = queries(&net, &objects, partition.last_lb());
            for step in 1..=steps as u64 {
                let mut log = reweigh(&mut net, &mut rng);
                if rng.gen_range(0..3) == 0 {
                    log.extend(reweigh(&mut net, &mut rng));
                }
                let (next, reports, _) = chain.snapshot().repaired(Arc::new(net.clone()), &log, &cfg);
                prop_assert_eq!(reports.len(), log.len());
                prop_assert_eq!(next.epoch, step);
                chain = QueryService::serving(next, &cfg);
                let fresh = QueryService::serving(epoch(&net, &pinned, step), &cfg);
                let (repaired, rebuilt) = (chain.snapshot(), fresh.snapshot());

                let (was, now) = (&labelled.oracle, &rebuilt.oracle);
                let edges: Vec<_> = log.iter().map(|&(a, b, _)| (a, b)).collect();
                let old = (&was.hl, &was.buckets);
                update_from_labels(&mut by_labels, &net, old, (&now.hl, &now.buckets), &edges);
                labelled = Arc::clone(&rebuilt);
                prop_assert!(
                    bytes(repaired.index()) == bytes(&by_labels),
                    "step {}: the repair persists to other bytes than the label route",
                    step
                );
                let (got, want) = (repaired.index(), rebuilt.index());
                prop_assert!(got.obj_dist() == want.obj_dist(), "step {}: object pairs", step);
                for n in net.nodes() {
                    let (got, want) = (got.decode_node(n), want.decode_node(n));
                    prop_assert_eq!(got.cats, want.cats, "step {}: categories at {}", step, n);
                    prop_assert_eq!(got.links, want.links, "step {}: links at {}", step, n);
                }
                prop_assert!(
                    answers(&chain, &batch) == answers(&fresh, &batch),
                    "step {}: the repaired epoch answers differently",
                    step
                );
            }
        }
    }
}
