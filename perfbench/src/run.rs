//! The measured run: one closed-loop client drives the real `QueryService`
//! through an interleaved schedule and checks what it returns.
//!
//! A run is a sequence of epochs; epoch `e` is
//! `[e > 0: publish 8 edge updates] -> cold round -> 2 x [hot round, join
//! round]`, so every metric's samples are spread over the whole run instead
//! of sitting in one block that a slow episode can hit (noise rule 2).
//! Epochs repeat until `--seconds` is used up, and at least [`MIN_EPOCHS`]
//! times; the counts that must repeat exactly for a seed are taken from
//! those first epochs only.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::hash::Hasher;
use std::time::Instant;

use dsi_graph::{ObjectSet, RoadNetwork};
use dsi_service::{Backend, BatchReport, Query, QueryService};
use dsi_signature::{OpStats, SignatureConfig};
use dsi_storage::IoStats;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::inputs::{self, Inputs, PointRounds};
use crate::spec::{Scale, Workload};
use crate::stats::median;
use crate::trace::Tracer;
use crate::verify::{self, Tally};

/// Epochs every run completes, whatever `--seconds` says: two publishes,
/// three cold rounds, six hot rounds — the exact-count metrics are summed
/// over these, so they do not depend on how fast the host is.
pub const MIN_EPOCHS: u64 = 3;
/// `[hot round, join round]` pairs per epoch.
const CYCLES: usize = 2;
/// Queries of each cold round that are re-served on `Backend::Dijkstra` and
/// compared (all of them on every workload but `sig_hot` and `oracle_hl`,
/// whose rounds are longer).
const VERIFY_PREFIX: usize = 2000;
/// Point queries checked against the harness's own brute force on the
/// first and on the last epoch.
const BRUTE_FORCE_SAMPLE: usize = 200;
/// Service builds timed per untraced run (`setup_s` is their median).
const SETUPS: usize = 3;

pub struct RunConfig {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
}

/// Named sample vectors: one value per round (or publish, or build).
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn median(&self, name: &str) -> f64 {
        median(self.get(name))
    }
}

/// Counters summed over a set of point rounds.
#[derive(Default)]
pub struct RoundTotals {
    pub queries: u64,
    pub io: IoStats,
    pub ops: OpStats,
}

impl RoundTotals {
    fn add(&mut self, rep: &BatchReport) {
        self.queries += rep.outputs.len() as u64;
        self.io += rep.io;
        self.ops += rep.ops;
    }

    pub fn per_query(&self, count: u64) -> f64 {
        count as f64 / self.queries as f64
    }
}

/// Everything a run observed.
#[derive(Default)]
pub struct Observed {
    pub samples: Samples,
    /// Hot rounds of the first [`MIN_EPOCHS`] epochs (exact for a seed).
    pub hot: RoundTotals,
    /// Cold rounds of the first [`MIN_EPOCHS`] epochs.
    pub cold: RoundTotals,
    /// Outputs compared with a reference, and how many disagreed.
    pub tally: Tally,
    /// Operations issued: queries served (timed or not) and edge updates.
    pub attempted: u64,
    /// Queries answered by the fallback ladder, shed by admission control,
    /// or retried after a storage fault — all must stay 0: no faults are
    /// injected and no deadline is set.
    pub degraded: u64,
    pub shed: u64,
    pub retries: u64,
    /// Publishes that failed, and lifetime counters of the service that
    /// moved when they must not.
    pub errors: u64,
    pub index_bytes_per_node: f64,
    pub rss_mb: f64,
    pub epochs: u64,
    pub publishes: u64,
    pub verify_ns: u64,
    pub gen_s: f64,
    /// Hash over every output served in the first [`MIN_EPOCHS`] epochs
    /// (same seed, same code: same digest).
    pub output_digest: u64,
}

impl Observed {
    /// Operations that failed: wrong answers, queries that left the fast
    /// path, errors.
    pub fn failed(&self) -> u64 {
        self.tally.failed + self.degraded + self.shed + self.retries + self.errors
    }
}

pub struct Finished {
    pub obs: Observed,
    pub inputs: Inputs,
    pub svc: QueryService,
}

fn build_service(
    w: &Workload,
    net: &RoadNetwork,
    objects: &ObjectSet,
    tracer: &mut Tracer,
) -> (QueryService, f64) {
    // The clones are the caller's copy of the inputs, not set-up work.
    let (net, objects) = (net.clone(), objects.clone());
    let (svc, ns) = tracer.time("service.new", |_| {
        QueryService::new(
            net,
            objects,
            &SignatureConfig::default(),
            &w.service_config(),
        )
    });
    (svc, ns as f64 / 1e9)
}

/// Feeds formatted text to a hasher without building the string.
struct HashWriter(DefaultHasher);

impl std::fmt::Write for HashWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

fn vm_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|l| l.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line in /proc/self/status");
    kb / 1024.0
}

struct Driver<'a> {
    cfg: &'a RunConfig,
    svc: &'a QueryService,
    objects: &'a ObjectSet,
    obs: Observed,
}

impl Driver<'_> {
    fn backend(&self) -> Backend {
        self.cfg.workload.backend
    }

    /// Serve one batch on the workload's backend, as one request.
    fn serve(&mut self, t: &mut Tracer, queries: &[Query]) -> BatchReport {
        let (svc, backend) = (self.svc, self.backend());
        let (rep, _) = t.time_request("service.serve_batch_on", |_| {
            svc.serve_batch_on(backend, queries, 1)
        });
        self.note(&rep);
        rep
    }

    /// Count a served batch and whatever left the fast path in it.
    fn note(&mut self, rep: &BatchReport) {
        if self.obs.epochs < MIN_EPOCHS {
            let mut h = HashWriter(DefaultHasher::new());
            h.0.write_u64(self.obs.output_digest);
            write!(h, "{:?}", rep.outputs).expect("hashing cannot fail");
            self.obs.output_digest = h.0.finish();
        }
        self.obs.attempted += rep.outputs.len() as u64;
        self.obs.degraded += rep.degraded_count() as u64;
        self.obs.shed += rep.shed as u64;
        self.obs.retries += rep.ops.retries;
    }

    /// Re-serve `queries` on `Backend::Dijkstra` (same epoch: no publish can
    /// intervene, the client is single-threaded) and compare.
    fn check_against_dijkstra(
        &mut self,
        t: &mut Tracer,
        what: &str,
        queries: &[Query],
        got: &BatchReport,
    ) {
        let (svc, tally) = (self.svc, &mut self.obs.tally);
        let (_, ns) = t.time("harness.verify", |_| {
            let want = svc.serve_batch_on(Backend::Dijkstra, queries, 1);
            verify::compare(
                what,
                queries,
                &got.outputs[..queries.len()],
                &want.outputs,
                tally,
            );
        });
        self.obs.verify_ns += ns;
    }

    /// Serve a seeded sample of `pool` (untimed) and check it against the
    /// harness's own brute force on the live network.
    fn check_brute_force(&mut self, t: &mut Tracer, what: &str, pool: &[Query], sample_seed: u64) {
        let mut sample: Vec<Query> = pool.to_vec();
        sample.shuffle(&mut StdRng::seed_from_u64(sample_seed));
        sample.truncate(BRUTE_FORCE_SAMPLE);
        let rep = self.serve(t, &sample);
        let (net, objects, tally) = (self.svc.net(), self.objects, &mut self.obs.tally);
        let (_, ns) = t.time("harness.verify", |_| {
            verify::compare_brute_force(what, &net, objects, &sample, &rep.outputs, tally)
        });
        self.obs.verify_ns += ns;
    }

    fn point_round(
        &mut self,
        t: &mut Tracer,
        queries: &[Query],
        cold: bool,
        exact: bool,
    ) -> BatchReport {
        // In a traced run every other hot round goes unrecorded, so the run
        // itself shows what recording costs.
        let traced = cold || self.obs.samples.get("qps").len().is_multiple_of(2);
        let rep = if traced {
            self.serve(t, queries)
        } else {
            t.paused(|t| self.serve(t, queries))
        };
        let qps = queries.len() as f64 / rep.wall.as_secs_f64();
        let s = &mut self.obs.samples;
        if cold {
            s.push("cold_qps", qps);
            if exact {
                self.obs.cold.add(&rep);
            }
            return rep;
        }
        s.push("qps", qps);
        s.push(if traced { "qps_traced" } else { "qps_untraced" }, qps);
        let mut tail = 0u64;
        let mut latency_sum = 0.0;
        for (class, metric) in [
            ("range", "range_p50_us"),
            ("knn", "knn_p50_us"),
            ("aggregate", "agg_p50_us"),
        ] {
            let c = rep
                .per_class
                .get(class)
                .expect("every point class in every round");
            s.push(metric, c.p50_ns as f64 / 1e3);
            tail = tail.max(c.p95_ns);
            latency_sum += c.mean_ns as f64 * c.count as f64;
        }
        s.push("tail_p95_us", tail as f64 / 1e3);
        let wall_ns = rep.wall.as_nanos() as f64;
        s.push("dispatch_frac", (wall_ns - latency_sum) / wall_ns);
        if exact {
            self.obs.hot.add(&rep);
        }
        rep
    }

    fn join_round(&mut self, t: &mut Tracer, queries: &[Query], check: bool) {
        let rep = self.serve(t, queries);
        let p50 = rep.per_class["join"].p50_ns;
        self.obs.samples.push("join_p50_ms", p50 as f64 / 1e6);
        if check {
            self.check_against_dijkstra(t, "join round", queries, &rep);
        }
    }

    fn publish(&mut self, t: &mut Tracer, epoch: u64) {
        let updates = inputs::updates(&self.svc.net(), epoch);
        let svc = self.svc;
        let (result, ns) = t.time_request("service.try_apply_updates", |_| {
            svc.try_apply_updates(&updates)
        });
        self.obs.attempted += updates.len() as u64;
        match result {
            Ok(reports) if reports.len() == updates.len() && svc.epoch() == epoch => {}
            other => {
                eprintln!(
                    "publish of epoch {epoch} failed: {:?}",
                    other.map(|r| r.len())
                );
                self.obs.errors += updates.len() as u64;
            }
        }
        self.obs.samples.push("publish_p50_ms", ns as f64 / 1e6);
        self.obs.publishes += 1;
    }

    fn epoch(&mut self, t: &mut Tracer, epoch: u64, rounds: &mut PointRounds) {
        let exact = epoch < MIN_EPOCHS;
        if epoch > 0 {
            self.publish(t, epoch);
        }
        let cold = rounds.next_round().to_vec();
        let rep = self.point_round(t, &cold, true, exact);
        if epoch == 0 {
            self.obs.rss_mb = vm_rss_mb();
            self.check_brute_force(t, "first epoch", &cold, self.cfg.seed);
        }
        let prefix = VERIFY_PREFIX.min(cold.len());
        self.check_against_dijkstra(t, "cold round", &cold[..prefix], &rep);
        for cycle in 0..CYCLES {
            let hot = rounds.next_round().to_vec();
            self.point_round(t, &hot, false, exact);
            let round = epoch * CYCLES as u64 + cycle as u64;
            let joins = inputs::join_round(self.cfg.workload, self.cfg.scale, self.cfg.seed, round);
            self.join_round(t, &joins, cycle == 0);
        }
        if epoch == MIN_EPOCHS - 1 {
            let ep = self.svc.snapshot();
            let labels = ep.hub_labels().map_or(0, |hl| hl.label_bytes() as u64);
            self.obs.index_bytes_per_node =
                (ep.index().disk_bytes() + labels) as f64 / ep.net().num_nodes() as f64;
        }
        self.obs.epochs += 1;
    }
}

/// Generate the inputs, build the service, run the schedule, check outputs.
/// With a disabled tracer this is the untraced run the end-to-end numbers
/// come from; [`crate::layers`] runs it traced and adds its probes.
pub fn execute(cfg: &RunConfig, tracer: &mut Tracer) -> Finished {
    let (inputs, gen_ns) = tracer.time("graph.generate", |_| inputs::dataset(cfg.scale));
    let ((svc, first_setup), _) = tracer.time("harness.setup", |t| {
        build_service(cfg.workload, &inputs.net, &inputs.objects, t)
    });

    let mut rounds = PointRounds::new(&inputs.net, cfg.workload, cfg.scale, cfg.seed);
    let mut d = Driver {
        cfg,
        svc: &svc,
        objects: &inputs.objects,
        obs: Observed::default(),
    };
    d.obs.gen_s = gen_ns as f64 / 1e9;
    d.obs.samples.push("setup_s", first_setup);

    let started = Instant::now();
    let mut epoch = 0u64;
    // Stop when another epoch of the average length seen so far would
    // overrun the budget.
    while epoch < MIN_EPOCHS
        || started.elapsed().as_secs_f64() * (epoch + 1) as f64 / epoch as f64 <= cfg.seconds
    {
        tracer.time("harness.epoch", |t| d.epoch(t, epoch, &mut rounds));
        epoch += 1;
    }
    let last = rounds.next_round().to_vec();
    d.check_brute_force(tracer, "last epoch", &last, cfg.seed ^ 1);

    let mut obs = d.obs;
    // The counters the service keeps for its whole life: nothing may have
    // been shed, degraded or quarantined, and every publish must have
    // swapped exactly one epoch in.
    let lifetime_ok = svc.shed_count() == 0
        && svc.quarantine_count() == 0
        && svc.hierarchy_fallback_count() == 0
        && svc.stale_epoch_read_count() == 0
        && svc.epoch_swap_count() == obs.publishes;
    if !lifetime_ok {
        eprintln!("service lifetime counters moved: {}", svc.stats_dump());
        obs.errors += 1;
    }
    Finished { obs, inputs, svc }
}

/// The extra service builds of an untraced run (`setup_s` is the median of
/// [`SETUPS`] builds). They run after the schedule, so the samples sit at
/// both ends of the run and `rss_mb` has already been read.
pub fn extra_setups(cfg: &RunConfig, fin: &mut Finished) {
    let mut tracer = Tracer::new(false);
    for _ in 1..SETUPS {
        let (svc, s) = build_service(
            cfg.workload,
            &fin.inputs.net,
            &fin.inputs.objects,
            &mut tracer,
        );
        drop(svc);
        fin.obs.samples.push("setup_s", s);
    }
}
