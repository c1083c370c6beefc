//! Answering one query on a pinned epoch, and graceful degradation.
//!
//! With a [`FaultPlan`](dsi_storage::FaultPlan) in the
//! [`ServiceConfig`](crate::ServiceConfig), every session stripe's buffer
//! pool injects deterministic read failures and corruptions on physical
//! reads. The single index's shards and the partitions' stripes run one
//! fault ladder: a failed attempt is retried (with bounded backoff) up to
//! the configured retry budget; past it the query is answered by the one
//! in-memory rung, the epoch's label oracle, which never touches the faulty
//! storage layer. A join below the last category reads no page, so no
//! fault reaches it. The answer is still exact, only the fast path was
//! skipped, and the query is tagged *degraded* in the
//! [`BatchReport`](crate::BatchReport). A stripe that degrades several
//! queries in a row is *quarantined*: its cached pages and decodes are
//! dropped (counters survive, so batch deltas stay monotone) and it
//! restarts with a cold working set. Queries shed by admission control land
//! on the same rung.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use dsi_signature::query::join::try_self_epsilon_join;
use dsi_signature::{KnnType, OpResult, Session, SessionState};
use dsi_storage::PageFile;

use crate::engine::{Backend, QueryOutput, QueryService};
use crate::epoch::{EpochIndex, Stripe};
use crate::exec::{self, Scratch};
use crate::workload::Query;

/// Consecutive degraded queries on one stripe before it is quarantined.
const QUARANTINE_STRIKES: u32 = 3;

impl QueryService {
    /// Answer `q` on `backend` over the pinned epoch `ep`, on the calling
    /// thread: the output, and whether the label oracle answered it after
    /// the fast path exhausted its retry budget.
    pub(crate) fn answer(
        &self,
        ep: &EpochIndex,
        backend: Backend,
        q: &Query,
        sc: &mut Scratch,
    ) -> (QueryOutput, bool) {
        match backend {
            Backend::Signature => self.execute_paged(ep, false, q, sc),
            Backend::Sharded => self.execute_paged(ep, true, q, sc),
            Backend::Dijkstra => {
                let mut ine = exec::Dijkstra {
                    net: &ep.net,
                    objects: &ep.objects,
                    ws: &mut sc.sssp,
                };
                (exec::execute(&mut ine, &ep.objects, q), false)
            }
            Backend::HubLabel => (self.execute_labels(ep, q, sc), false),
        }
    }

    /// A cold session for a shard that has none yet, wired to the service's
    /// fault plan, readahead window, and (when file-backed) the epoch's
    /// page file.
    fn fresh_state(&self, file: Option<&Arc<PageFile>>) -> SessionState {
        let mut state = if self.cfg.fault_plan.is_active() {
            SessionState::with_fault_plan(self.cfg.pool_pages, self.cfg.fault_plan)
        } else {
            SessionState::new(self.cfg.pool_pages)
        };
        state.set_readahead(self.cfg.readahead);
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
        let mut labels = sc.labels(&ep.oracle.hl, &ep.oracle.buckets, &ep.objects);
        let out = exec::execute(&mut labels, &ep.objects, q);
        self.hl_lookups.fetch_add(labels.lookups, Ordering::Relaxed);
        self.hl_entries.fetch_add(labels.scanned, Ordering::Relaxed);
        out
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
                Err(_fault) if tries < self.cfg.retry_budget => {
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

    /// Execute one query on a paged backend through its stripe's fault
    /// ladder, returning the output and whether the label oracle answered
    /// it instead.
    ///
    /// On the shard router (`sharded`, with more than one of
    /// [`ServiceConfig::partitions`]) a node-anchored query locks its home
    /// partition's stripe only: the region operators run on that
    /// partition's session, and remote regions contribute through the
    /// boundary overlay's hub labels and the precomputed glue rows — no
    /// remote page is touched. Everything else — the signature backend, and
    /// a join, which is anchored at no node and so has nothing to route —
    /// runs on the epoch's single index, under the shard its route key
    /// picks.
    ///
    /// [`ServiceConfig::partitions`]: crate::ServiceConfig::partitions
    fn execute_paged(
        &self,
        ep: &EpochIndex,
        sharded: bool,
        q: &Query,
        sc: &mut Scratch,
    ) -> (QueryOutput, bool) {
        let answered = match (&ep.parted, *q) {
            (
                Some(pe),
                Query::Range { node, .. } | Query::Knn { node, .. } | Query::Aggregate { node, .. },
            ) if sharded => {
                let p = pe.pidx.part_of(node);
                self.ladder(
                    &mut pe.shards.lock_shard(p),
                    ep.pages.as_ref().and_then(|pg| pg.parted.as_ref()),
                    |state| pe.pidx.resume(p, state),
                    |sess| match *q {
                        Query::Range { node, eps } => pe
                            .pidx
                            .try_range(sess, p, node, eps)
                            .map(QueryOutput::Range),
                        Query::Knn { node, k } => {
                            pe.pidx.try_knn(sess, p, node, k).map(QueryOutput::Knn)
                        }
                        Query::Aggregate { node, eps } => pe
                            .pidx
                            .try_aggregate(sess, p, node, eps)
                            .map(QueryOutput::Aggregate),
                        Query::Join { .. } => unreachable!("joins run on the single index"),
                    },
                )
            }
            _ => self.ladder(
                &mut ep.shards.lock(q.route_key()),
                ep.pages.as_ref().map(|pg| &pg.index),
                |state| Session::resume(&ep.index, &ep.net, state),
                |sess| try_execute_signature(sess, q),
            ),
        };
        match answered {
            Some(out) => (out, false),
            None => (self.execute_labels(ep, q, sc), true),
        }
    }
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
    use crate::engine::ServiceConfig;
    use crate::workload::{generate, WorkloadConfig, WorkloadMix};
    use dsi_graph::generate::{random_planar, PlanarConfig};
    use dsi_graph::{Dist, NodeId, ObjectId, ObjectSet, INFINITY};
    use dsi_hierarchy::HubLabels;
    use dsi_signature::{KnnResult, SignatureConfig};
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
        let buckets = &ep.oracle.buckets;

        // Bucket rank == object id: the buckets cover exactly the object
        // hosts, and each host's own row holds its object at distance 0.
        assert_eq!(buckets.num_targets(), objects.len());
        for (o, host) in objects.iter() {
            assert_eq!(buckets.row(host).first(), Some(&(o.0, 0)));
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
