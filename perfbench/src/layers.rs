//! The traced run (`--trace 1`): the same service schedule with spans on,
//! then probes that call each crate's public functions directly, so a
//! change in an end-to-end number can be pinned on a layer.
//!
//! Which end-to-end metric each per-layer metric should move, and on which
//! workload, is written down in the README before anything is measured.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use dsi_baselines::Ine;
use dsi_graph::{sssp_bounded_into, sssp_into, NodeId, ObjectId, SsspWorkspace, INFINITY};
use dsi_hierarchy::{ChConfig, ChWorkspace, ContractionHierarchy, HubLabels};
use dsi_partition::{PartitionedIndex, ShardedSessions};
use dsi_service::{Backend, Query, QueryService, StoreMode};
use dsi_signature::query::join::try_self_epsilon_join;
use dsi_signature::{
    KnnType, Session, SessionState, SignatureConfig, SignatureIndex, SignatureMaintainer,
};
use dsi_storage::{BufferPool, PageFile, PageId, Striped, PAGE_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::inputs::{self, Inputs, PointRounds, EPS_RANGE};
use crate::report::RunResult;
use crate::run::{self, Finished, Observed, RunConfig};
use crate::spec::{Workload, PER_LAYER};
use crate::stats::{mean, median};
use crate::trace::Tracer;

/// Share of `--seconds` the traced service schedule may use (it still
/// completes [`run::MIN_EPOCHS`]); the probes need the rest of the run.
const SCHEDULE_SHARE: f64 = 0.4;
/// Point queries each probe replays (a prefix of the run's first round).
const PROBE_QUERIES: usize = 1500;
/// Partitions of the probe's `PartitionedIndex` — `sharded_k4`'s K.
const PARTITIONS: usize = 4;

type Values = Vec<(&'static str, f64, usize)>;

/// The layers' structures, built once from the run's inputs (each build is
/// itself a per-layer metric).
struct Built {
    ch: ContractionHierarchy,
    hl: HubLabels,
    index: SignatureIndex,
    pidx: PartitionedIndex,
}

struct Probe<'a> {
    cfg: &'a RunConfig,
    w: &'static Workload,
    inputs: &'a Inputs,
    /// The first round of the run's point traffic, capped.
    queries: Vec<Query>,
    rng: StdRng,
    values: Values,
}

fn us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e3).collect()
}

fn node_of(q: &Query) -> NodeId {
    match *q {
        Query::Range { node, .. } | Query::Knn { node, .. } | Query::Aggregate { node, .. } => node,
        Query::Join { .. } => unreachable!("point rounds carry no joins"),
    }
}

/// Time `call` on each point query, one request span per call named after
/// the query's class; returns the call times as `[range, knn, aggregate]`.
fn timed_pass(
    t: &mut Tracer,
    queries: &[Query],
    names: [&'static str; 3],
    mut call: impl FnMut(&Query),
) -> [Vec<u64>; 3] {
    let mut times = [Vec::new(), Vec::new(), Vec::new()];
    for q in queries {
        let class = match q {
            Query::Range { .. } => 0,
            Query::Knn { .. } => 1,
            _ => 2,
        };
        times[class].push(t.time_request(names[class], |_| call(q)).1);
    }
    times
}

impl Probe<'_> {
    fn put(&mut self, name: &'static str, value: f64, n: usize) {
        self.values.push((name, value, n));
    }

    /// Median of per-call times, in microseconds.
    fn put_p50_us(&mut self, name: &'static str, ns: &[u64]) {
        self.put(name, median(&us(ns)), ns.len());
    }

    fn build(&mut self, t: &mut Tracer) -> Built {
        let (net, objects) = (&self.inputs.net, &self.inputs.objects);
        let sig = SignatureConfig::default();
        let (ch, ns) = t.time("hierarchy.ContractionHierarchy::build", |_| {
            ContractionHierarchy::build(net, &ChConfig::default())
        });
        self.put("hierarchy.ch_build_s", ns as f64 / 1e9, 1);
        let (hl, ns) = t.time("hierarchy.HubLabels::build", |_| HubLabels::build(&ch));
        self.put("hierarchy.hl_build_s", ns as f64 / 1e9, 1);
        let (index, ns) = t.time("signature.SignatureIndex::build_with_hierarchy", |_| {
            SignatureIndex::build_with_hierarchy(net, objects, &sig, &ch)
        });
        self.put("signature.build_s", ns as f64 / 1e9, 1);
        let (pidx, ns) = t.time("partition.PartitionedIndex::build", |_| {
            PartitionedIndex::build(net, objects, &sig, PARTITIONS)
        });
        self.put("partition.build_s", ns as f64 / 1e9, 1);
        Built {
            ch,
            hl,
            index,
            pidx,
        }
    }

    fn graph(&mut self, t: &mut Tracer) {
        let net = &self.inputs.net;
        let mut ws = SsspWorkspace::new();
        let nodes: Vec<NodeId> = self.queries.iter().map(node_of).collect();
        let full: Vec<u64> = nodes
            .iter()
            .take(60)
            .map(|&s| {
                t.time_request("graph.sssp_into", |_| sssp_into(net, s, &mut ws))
                    .1
            })
            .collect();
        self.put_p50_us("graph.sssp_us", &full);
        let bounded: Vec<u64> = nodes
            .iter()
            .take(600)
            .map(|&s| {
                t.time_request("graph.sssp_bounded_into", |_| {
                    sssp_bounded_into(net, s, EPS_RANGE.1, &mut ws)
                })
                .1
            })
            .collect();
        self.put_p50_us("graph.sssp_bounded_us", &bounded);
    }

    /// Write the main index's page image as a real page file (every
    /// workload gets one here, so the file numbers exist on `Mem` workloads
    /// too) and time the page file and the buffer pool on it.
    fn storage(&mut self, t: &mut Tracer, b: &Built) -> Arc<PageFile> {
        let mut image = vec![0u8; b.index.page_image_bytes()];
        b.index.fill_page_image(&self.inputs.net, &mut image);
        self.put("storage.page_image_bytes", image.len() as f64, 1);
        let path = PageFile::scratch_path("probe");
        PageFile::create(&path, &image).expect("write probe page file");
        let file = Arc::new(PageFile::open(&path, false).expect("open probe page file"));
        // Unlinked now, readable until the last descriptor closes.
        std::fs::remove_file(&path).expect("unlink probe page file");
        let pages = file.num_pages();

        let mut page = [0u8; PAGE_SIZE];
        let reads: Vec<u64> = (0..2000)
            .map(|_| {
                let p: PageId = self.rng.gen_range(0..pages);
                t.time_request("storage.PageFile::read_page", |_| {
                    file.read_page(p, &mut page).expect("probe page reads back")
                })
                .1
            })
            .collect();
        self.put_p50_us("storage.read_page_us", &reads);
        let mut run = vec![0u8; 8 * PAGE_SIZE];
        let runs: Vec<u64> = (0..1000)
            .map(|_| {
                let p: PageId = self.rng.gen_range(0..pages - 8);
                t.time_request("storage.PageFile::read_run", |_| {
                    file.read_run(p, &mut run).expect("probe run reads back")
                })
                .1
            })
            .collect();
        self.put_p50_us("storage.read_run8_us", &runs);

        // The pool as the workload sizes it, over the workload's store.
        let mut pool = BufferPool::new(self.w.pool_pages);
        if self.w.store == StoreMode::File {
            pool.attach_file(Arc::clone(&file));
        }
        pool.try_access(0).expect("no fault plan");
        const HITS: usize = 200_000;
        let (_, ns) = t.time("storage.BufferPool::try_access(hit)", |_| {
            for _ in 0..HITS {
                black_box(pool.try_access(black_box(0))).expect("no fault plan");
            }
        });
        self.put("storage.pool_hit_ns", ns as f64 / HITS as f64, HITS);
        // Sweeps over the whole image from an emptied pool: every access
        // misses (and, where the image outgrows the pool, evicts). Faults
        // are counted, not assumed.
        let before = pool.stats();
        let mut miss_ns = 0;
        for _ in 0..3 {
            pool.drop_pages();
            miss_ns += t
                .time("storage.BufferPool::try_access(miss)", |_| {
                    for p in 0..pages {
                        pool.try_access(p).expect("no fault plan");
                    }
                })
                .1;
        }
        let faults = (pool.stats() - before).faults.max(1);
        self.put(
            "storage.pool_miss_us",
            miss_ns as f64 / 1e3 / faults as f64,
            faults as usize,
        );
        file
    }

    /// The workload's session stripes over the probe's own index: the same
    /// count, pool size, store and routing hash as the service's.
    fn stripes(&self, file: &Arc<PageFile>) -> Striped<Option<SessionState>> {
        Striped::new(self.w.shards, |_| {
            let mut state = SessionState::new(self.w.pool_pages);
            if self.w.store == StoreMode::File {
                state.attach_file(Arc::clone(file));
            }
            Some(state)
        })
    }

    fn signature(&mut self, t: &mut Tracer, b: &Built, file: &Arc<PageFile>) -> f64 {
        let net = &self.inputs.net;
        let stripes = self.stripes(file);
        // Run `f` on the stripe that owns `key`, as the service would.
        let on_stripe = |key: u64, f: &mut dyn FnMut(&mut Session<'_>)| {
            let mut slot = stripes.lock(key);
            let mut sess = Session::resume(&b.index, net, slot.take().expect("state parked"));
            f(&mut sess);
            *slot = Some(sess.suspend());
        };

        // Operators, on the run's own queries: one warming pass (the
        // service's hot rounds are warm too), then the timed pass.
        let mut point = |q: &Query| {
            on_stripe(q.route_key(), &mut |sess| match *q {
                Query::Range { node, eps } => {
                    black_box(sess.try_range(node, eps).expect("no fault plan"));
                }
                Query::Knn { node, k } => {
                    black_box(
                        sess.try_knn(node, k, KnnType::Type1)
                            .expect("no fault plan"),
                    );
                }
                Query::Aggregate { node, eps } => {
                    black_box(sess.try_aggregate(node, eps).expect("no fault plan"));
                }
                Query::Join { .. } => unreachable!("point rounds carry no joins"),
            })
        };
        self.queries.iter().for_each(&mut point);
        let names = [
            "signature.Session::try_range",
            "signature.Session::try_knn",
            "signature.Session::try_aggregate",
        ];
        let [range, knn, agg] = timed_pass(t, &self.queries, names, point);
        self.put_p50_us("signature.range_us", &range);
        self.put_p50_us("signature.knn_us", &knn);
        self.put_p50_us("signature.agg_us", &agg);
        let range_p50_us = median(&us(&range));

        let joins = inputs::join_round(self.w, self.cfg.scale, self.cfg.seed, 0);
        let mut join_ns = Vec::new();
        for q in joins.iter().take(8) {
            let Query::Join { eps } = *q else {
                unreachable!("join rounds carry only joins")
            };
            on_stripe(q.route_key(), &mut |sess| {
                let (_, ns) = t.time_request("signature.try_self_epsilon_join", |_| {
                    black_box(try_self_epsilon_join(sess, eps).expect("no fault plan"));
                });
                join_ns.push(ns);
            });
        }
        self.put(
            "signature.join_ms",
            median(&us(&join_ns)) / 1e3,
            join_ns.len(),
        );

        // Codec: full decode with a cold decode cache, then single entries
        // and exact retrievals on warm caches.
        let objects: Vec<ObjectId> = self.inputs.objects.objects().collect();
        let nodes: Vec<NodeId> = self.queries.iter().map(node_of).take(500).collect();
        let mut decode = Vec::new();
        for &n in &nodes {
            on_stripe(n.0 as u64, &mut |sess| {
                sess.invalidate_cache();
                let (_, ns) = t.time_request("signature.Session::try_read_signature", |_| {
                    black_box(sess.try_read_signature(n).expect("no fault plan"));
                });
                decode.push(ns);
            });
        }
        self.put_p50_us("signature.read_signature_us", &decode);

        let pairs: Vec<(NodeId, ObjectId)> = nodes
            .iter()
            .flat_map(|&n| (0..8).map(move |_| n))
            .map(|n| (n, objects[self.rng.gen_range(0..objects.len())]))
            .collect();
        let mut entry_ns = 0u64;
        for timed in [false, true] {
            for &(n, o) in &pairs {
                on_stripe(n.0 as u64, &mut |sess| {
                    let t0 = Instant::now();
                    black_box(sess.try_read_entry(n, o).expect("no fault plan"));
                    if timed {
                        entry_ns += t0.elapsed().as_nanos() as u64;
                    }
                });
            }
        }
        self.put(
            "signature.read_entry_ns",
            entry_ns as f64 / pairs.len() as f64,
            pairs.len(),
        );
        let mut exact = Vec::new();
        for &(n, o) in pairs.iter().step_by(4) {
            on_stripe(n.0 as u64, &mut |sess| {
                let (_, ns) = t.time_request("signature.Session::try_retrieve_exact", |_| {
                    black_box(sess.try_retrieve_exact(n, o).expect("no fault plan"));
                });
                exact.push(ns);
            });
        }
        self.put_p50_us("signature.retrieve_exact_us", &exact);

        // Maintenance: the run's first update batch, applied to copies.
        let (mut net2, mut index2) = (net.clone(), b.index.clone());
        let mut maint = SignatureMaintainer::new(net, &self.inputs.objects);
        let updates = inputs::updates(net, 1);
        let mut update_ms = Vec::new();
        let mut changed = Vec::new();
        for &(a, bb, w) in &updates {
            let (report, ns) = t.time_request("signature.SignatureMaintainer::update_edge", |_| {
                maint.update_edge(&mut net2, &mut index2, a, bb, w)
            });
            update_ms.push(ns as f64 / 1e6);
            changed.push(report.entries_changed as f64);
        }
        self.put(
            "signature.update_edge_ms",
            mean(&update_ms),
            update_ms.len(),
        );
        self.put(
            "signature.entries_changed_per_update",
            mean(&changed),
            changed.len(),
        );
        let nodes_f = net.num_nodes() as f64;
        self.put(
            "signature.disk_bytes_per_node",
            b.index.disk_bytes() as f64 / nodes_f,
            1,
        );
        range_p50_us
    }

    /// Returns the p50 of a range query answered straight off the labels
    /// (one `p2p` per object — what `Backend::HubLabel` does), in µs.
    fn hierarchy(&mut self, t: &mut Tracer, b: &Built) -> f64 {
        let hosts = self.inputs.objects.host_nodes();
        let sources: Vec<NodeId> = self.queries.iter().map(node_of).collect();
        let pairs: Vec<(NodeId, NodeId)> = sources
            .iter()
            .flat_map(|&s| (0..16).map(move |_| s))
            .map(|s| (s, hosts[self.rng.gen_range(0..hosts.len())]))
            .collect();

        let mut chws = ChWorkspace::new();
        let ch_ns: Vec<u64> = pairs
            .iter()
            .step_by(8)
            .map(|&(s, d)| {
                t.time_request("hierarchy.ContractionHierarchy::p2p", |_| {
                    black_box(b.ch.p2p(s, d, &mut chws));
                })
                .1
            })
            .collect();
        self.put_p50_us("hierarchy.ch_p2p_us", &ch_ns);

        let (_, ns) = t.time("hierarchy.HubLabels::p2p", |_| {
            for &(s, d) in &pairs {
                black_box(b.hl.p2p(black_box(s), black_box(d)));
            }
        });
        self.put(
            "hierarchy.hl_p2p_ns",
            ns as f64 / pairs.len() as f64,
            pairs.len(),
        );
        let scanned: u64 = pairs.iter().map(|&(s, d)| b.hl.p2p_counted(s, d).1).sum();
        self.put(
            "hierarchy.label_entries_per_lookup",
            scanned as f64 / pairs.len() as f64,
            pairs.len(),
        );

        let buckets = b.hl.buckets(hosts);
        let mut dists = Vec::new();
        let scans: Vec<u64> = sources
            .iter()
            .take(1000)
            .map(|&s| {
                t.time_request("hierarchy.HubLabels::one_to_many", |_| {
                    black_box(b.hl.one_to_many(s, &buckets, &mut dists));
                })
                .1
            })
            .collect();
        self.put_p50_us("hierarchy.hl_one_to_many_us", &scans);

        let nodes_f = self.inputs.net.num_nodes() as f64;
        self.put(
            "hierarchy.label_bytes_per_node",
            b.hl.label_bytes() as f64 / nodes_f,
            1,
        );
        self.put("hierarchy.avg_label_len", b.hl.avg_label_len(), 1);

        let range_ns: Vec<u64> = self
            .queries
            .iter()
            .filter_map(|q| match *q {
                Query::Range { node, eps } => Some((node, eps)),
                _ => None,
            })
            .map(|(node, eps)| {
                t.time_request("hierarchy.HubLabels::p2p(range)", |_| {
                    let within = hosts
                        .iter()
                        .filter(|&&h| {
                            let d = b.hl.p2p(node, h);
                            d != INFINITY && d <= eps
                        })
                        .count();
                    black_box(within);
                })
                .1
            })
            .collect();
        median(&us(&range_ns))
    }

    fn partition(&mut self, t: &mut Tracer, b: &Built) -> f64 {
        let mut sessions = ShardedSessions::new(&b.pidx, self.w.pool_pages);
        let queries: Vec<Query> = self
            .queries
            .iter()
            .copied()
            .take(PROBE_QUERIES / 2)
            .collect();
        let point = |sessions: &mut ShardedSessions<'_>, q: &Query| match *q {
            Query::Range { node, eps } => {
                black_box(sessions.range(node, eps));
            }
            Query::Knn { node, k } => {
                black_box(sessions.knn(node, k));
            }
            Query::Aggregate { node, eps } => {
                black_box(sessions.aggregate(node, eps));
            }
            Query::Join { .. } => unreachable!("point rounds carry no joins"),
        };
        // Warm, then count and time the second pass only.
        queries.iter().for_each(|q| point(&mut sessions, q));
        let before = (sessions.io_stats(), sessions.op_stats());
        let names = [
            "partition.ShardedSessions::range",
            "partition.ShardedSessions::knn",
            "partition.ShardedSessions::aggregate",
        ];
        let [range, knn, agg] = timed_pass(t, &queries, names, |q| point(&mut sessions, q));
        let io = sessions.io_stats() - before.0;
        let ops = sessions.op_stats() - before.1;
        let n = queries.len();
        self.put_p50_us("partition.range_us", &range);
        self.put_p50_us("partition.knn_us", &knn);
        self.put_p50_us("partition.agg_us", &agg);
        self.put(
            "partition.label_lookups_per_query",
            ops.label_lookups as f64 / n as f64,
            n,
        );
        self.put(
            "partition.label_entries_per_query",
            ops.label_entries_scanned as f64 / n as f64,
            n,
        );
        self.put("partition.pages_per_query", io.logical as f64 / n as f64, n);

        let joins = inputs::join_round(self.w, self.cfg.scale, self.cfg.seed, 0);
        let join_ns: Vec<u64> = joins
            .iter()
            .take(5)
            .map(|q| {
                let Query::Join { eps } = *q else {
                    unreachable!("join rounds carry only joins")
                };
                t.time_request("partition.ShardedSessions::join", |_| {
                    black_box(sessions.join(eps));
                })
                .1
            })
            .collect();
        self.put(
            "partition.join_ms",
            median(&us(&join_ns)) / 1e3,
            join_ns.len(),
        );
        self.put("partition.boundary_nodes", b.pidx.num_boundary() as f64, 1);
        self.put(
            "partition.glue_label_bytes",
            b.pidx.glue_labels().label_bytes() as f64,
            1,
        );
        median(&us(&range))
    }

    fn baselines(&mut self, t: &mut Tracer) {
        let (net, objects) = (&self.inputs.net, &self.inputs.objects);
        // One pool as large as all of the workload's stripes together.
        let mut ine = Ine::new(net, self.w.pool_pages * self.w.shards);
        let (mut range, mut knn) = (Vec::new(), Vec::new());
        for q in &self.queries {
            match *q {
                Query::Range { node, eps } => range.push(
                    t.time_request("baselines.Ine::range", |_| {
                        black_box(ine.range(net, objects, node, eps));
                    })
                    .1,
                ),
                Query::Knn { node, k } => knn.push(
                    t.time_request("baselines.Ine::knn", |_| {
                        black_box(ine.knn(net, objects, node, k));
                    })
                    .1,
                ),
                _ => {}
            }
        }
        self.put_p50_us("baselines.ine_range_us", &range);
        self.put_p50_us("baselines.ine_knn_us", &knn);
    }

    /// What one `serve_batch_on` call costs beyond the query it carries:
    /// thread scope, channel, counter snapshots.
    fn batch_overhead(&mut self, t: &mut Tracer, svc: &QueryService, obs: &mut Observed) {
        let backend = self.w.backend;
        let overhead: Vec<f64> = self
            .queries
            .iter()
            .take(400)
            .map(|q| {
                let one = std::slice::from_ref(q);
                let (rep, _) = t.time_request("service.serve_batch_on(1)", |_| {
                    svc.serve_batch_on(backend, one, 1)
                });
                obs.attempted += 1;
                let inside = rep
                    .per_class
                    .values()
                    .next()
                    .expect("one query, one class")
                    .max_ns;
                (rep.wall.as_nanos() as f64 - inside as f64) / 1e3
            })
            .collect();
        self.put(
            "service.batch_overhead_us",
            median(&overhead),
            overhead.len(),
        );
    }
}

/// Per-layer metrics that come straight from the service schedule's
/// observations (counts are summed over the first [`run::MIN_EPOCHS`]
/// epochs, so they repeat exactly for a seed).
fn service_values(fin: &Finished, values: &mut Values) {
    let obs = &fin.obs;
    let (hot, cold) = (&obs.hot, &obs.cold);
    let n = hot.queries as usize;
    let ratio = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    values.extend([
        ("graph.gen_s", obs.gen_s, 1),
        ("storage.pool_hit_ratio", hot.io.hit_ratio(), n),
        (
            "storage.physical_reads_per_query",
            hot.per_query(hot.io.physical_reads()),
            n,
        ),
        (
            "storage.cold_faults_per_query",
            cold.per_query(cold.io.faults),
            cold.queries as usize,
        ),
        (
            "signature.sig_reads_per_query",
            hot.per_query(hot.ops.signature_reads),
            n,
        ),
        (
            "signature.entry_reads_per_query",
            hot.per_query(hot.ops.entry_reads),
            n,
        ),
        ("signature.hops_per_query", hot.per_query(hot.ops.hops), n),
        (
            "signature.exact_cmp_per_query",
            hot.per_query(hot.ops.exact_comparisons),
            n,
        ),
        (
            "signature.approx_cmp_per_query",
            hot.per_query(hot.ops.approx_comparisons),
            n,
        ),
        (
            "signature.decode_cache_hit_ratio",
            ratio(hot.ops.decode_cache_hits, hot.ops.decode_cache_misses),
            n,
        ),
        (
            "signature.entry_cache_hit_ratio",
            ratio(hot.ops.entry_cache_hits, hot.ops.entry_cache_misses),
            n,
        ),
        ("service.pages_per_query", hot.per_query(hot.io.logical), n),
        ("service.faults_per_query", hot.per_query(hot.io.faults), n),
        (
            "service.failed_frac",
            obs.failed() as f64 / obs.attempted as f64,
            obs.attempted as usize,
        ),
        (
            "service.dispatch_frac",
            obs.samples.median("dispatch_frac"),
            obs.samples.get("dispatch_frac").len(),
        ),
        ("service.epoch_swaps", fin.svc.epoch_swap_count() as f64, 1),
        (
            "service.stale_epoch_reads",
            fin.svc.stale_epoch_read_count() as f64,
            1,
        ),
        ("service.shed", (obs.shed + fin.svc.shed_count()) as f64, 1),
        ("service.degraded", obs.degraded as f64, 1),
        ("service.retries", obs.retries as f64, 1),
        ("service.quarantines", fin.svc.quarantine_count() as f64, 1),
        (
            "service.publish_ms",
            obs.samples.median("publish_p50_ms"),
            obs.samples.get("publish_p50_ms").len(),
        ),
        ("service.setup_s", obs.samples.median("setup_s"), 1),
        (
            "harness.trace_overhead_frac",
            1.0 - obs.samples.median("qps_traced") / obs.samples.median("qps_untraced"),
            obs.samples.get("qps").len(),
        ),
    ]);
}

/// Build each layer's structures from the run's inputs and call into them.
fn probes(cfg: &RunConfig, fin: &mut Finished, t: &mut Tracer) -> Values {
    let Finished { obs, inputs, svc } = fin;
    let queries = PointRounds::new(&inputs.net, cfg.workload, cfg.scale, cfg.seed)
        .next_round()
        .iter()
        .copied()
        .take(PROBE_QUERIES)
        .collect();
    let mut p = Probe {
        cfg,
        w: cfg.workload,
        inputs,
        queries,
        rng: StdRng::seed_from_u64(cfg.seed ^ 0x0070_726f_6265),
        values: Vec::new(),
    };
    let built = p.build(t);
    p.graph(t);
    let file = p.storage(t, &built);
    let sig_range_us = p.signature(t, &built, &file);
    let hl_range_us = p.hierarchy(t, &built);
    let part_range_us = p.partition(t, &built);
    p.baselines(t);
    p.batch_overhead(t, svc, obs);
    // The same range queries through the service and straight into the
    // operator the workload's backend runs.
    let direct_range_us = match cfg.workload.backend {
        Backend::HubLabel => hl_range_us,
        Backend::Sharded => part_range_us,
        _ => sig_range_us,
    };
    let through_service_us = obs.samples.median("range_p50_us");
    p.put(
        "service.op_overhead_us",
        through_service_us - direct_range_us,
        1,
    );
    p.values
}

pub fn traced_run(cfg: &RunConfig) -> RunResult {
    let started = Instant::now();
    let mut tracer = Tracer::new(true);
    let schedule = RunConfig {
        seconds: cfg.seconds * SCHEDULE_SHARE,
        ..*cfg
    };
    let ((fin, mut values), _) = tracer.time("harness.run", |t| {
        let mut fin = run::execute(&schedule, t);
        let (values, _) = t.time("harness.probes", |t| probes(cfg, &mut fin, t));
        (fin, values)
    });
    service_values(&fin, &mut values);

    let out = crate::out_dir();
    std::fs::create_dir_all(&out).expect("create output directory");
    let path = out.join(format!("spans-{}-{}.json", cfg.workload.name, cfg.seed));
    tracer
        .write(&path, cfg.workload.name, cfg.seed)
        .expect("write span file");
    eprintln!(
        "{} spans written to {}",
        tracer.spans().len(),
        path.display()
    );
    values.extend([
        ("harness.run_s", started.elapsed().as_secs_f64(), 1),
        ("harness.verify_s", fin.obs.verify_ns as f64 / 1e9, 1),
        ("harness.spans", tracer.spans().len() as f64, 1),
    ]);
    RunResult::new(&fin.obs, &PER_LAYER, values)
}
