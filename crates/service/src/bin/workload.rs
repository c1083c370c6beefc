//! Command-line workload driver for the query service.
//!
//! Builds a random planar network + uniform object set, generates a seeded
//! query batch, serves it on a configurable worker count, and prints
//! per-class latency percentiles, throughput and I/O counters. With
//! `--sweep`, serves the same batch at 1/2/4/... workers for a scaling
//! table; with `--updates N`, applies N random edge updates between two
//! batches to exercise the maintenance epoch; with `--update-rate F`,
//! runs the mixed read/update mode — an updater thread applies
//! `round(F × rounds)` edge-update batches *while* the reader rounds run,
//! and the summary reports how much of the maintenance latency the
//! double-buffered epoch swap hid from the reader tail (p99 with vs.
//! without concurrent maintenance).
//!
//! Example:
//! ```text
//! cargo run --release -p dsi-service --bin workload -- \
//!     --nodes 5000 --queries 2000 --workers 4 --skew zipf:0.8
//! ```

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use dsi_graph::generate::{random_planar, PlanarConfig};
use dsi_graph::ObjectSet;
use dsi_service::{
    generate, generate_updates, Backend, QueryService, ServiceConfig, Skew, WorkloadConfig,
};
use dsi_signature::SignatureConfig;
use dsi_storage::{FaultPlan, StoreMode};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Args {
    nodes: usize,
    object_density: f64,
    queries: usize,
    workers: usize,
    shards: usize,
    pool_pages: usize,
    skew: Skew,
    seed: u64,
    sweep: bool,
    updates: usize,
    update_rate: f64,
    fault_rate: f64,
    corrupt_rate: f64,
    fault_seed: u64,
    backend: Backend,
    partitions: usize,
    /// Whether `--backend` explicitly picked the backend
    /// (a `--partitions` > 1 auto-selects the sharded router otherwise).
    backend_explicit: bool,
    store: StoreMode,
    readahead: u32,
    deadline_us: u64,
    spike_rate: f64,
    spike_us: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            nodes: 2000,
            object_density: 0.02,
            queries: 1000,
            workers: 4,
            shards: 16,
            pool_pages: 64,
            skew: Skew::Zipf { theta: 0.8 },
            seed: 42,
            sweep: false,
            updates: 0,
            update_rate: 0.0,
            fault_rate: 0.0,
            corrupt_rate: 0.0,
            fault_seed: 0xFA01,
            backend: Backend::Signature,
            partitions: 1,
            backend_explicit: false,
            store: StoreMode::Mem,
            readahead: 0,
            deadline_us: 0,
            spike_rate: 0.0,
            spike_us: 200,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--nodes" => args.nodes = parse(&value("--nodes")?)?,
            "--density" => args.object_density = parse(&value("--density")?)?,
            "--queries" => args.queries = parse(&value("--queries")?)?,
            "--workers" => args.workers = parse(&value("--workers")?)?,
            "--shards" => args.shards = parse(&value("--shards")?)?,
            "--pool-pages" => args.pool_pages = parse(&value("--pool-pages")?)?,
            "--seed" => args.seed = parse(&value("--seed")?)?,
            "--updates" => args.updates = parse(&value("--updates")?)?,
            "--update-rate" => args.update_rate = parse(&value("--update-rate")?)?,
            "--fault-rate" => args.fault_rate = parse(&value("--fault-rate")?)?,
            "--corrupt-rate" => args.corrupt_rate = parse(&value("--corrupt-rate")?)?,
            "--fault-seed" => args.fault_seed = parse(&value("--fault-seed")?)?,
            "--backend" => {
                args.backend = value("--backend")?.parse()?;
                args.backend_explicit = true;
            }
            "--partitions" => args.partitions = parse(&value("--partitions")?)?,
            "--store" => args.store = value("--store")?.parse()?,
            "--readahead" => args.readahead = parse(&value("--readahead")?)?,
            "--batch" => {
                args.readahead = match value("--batch")?.as_str() {
                    "on" => 8,
                    "off" => 0,
                    other => return Err(format!("bad --batch {other:?} (on | off)")),
                }
            }
            "--deadline-us" => args.deadline_us = parse(&value("--deadline-us")?)?,
            "--spike-rate" => args.spike_rate = parse(&value("--spike-rate")?)?,
            "--spike-us" => args.spike_us = parse(&value("--spike-us")?)?,
            "--sweep" => args.sweep = true,
            "--skew" => {
                let v = value("--skew")?;
                args.skew = match v.split_once(':') {
                    None if v == "uniform" => Skew::Uniform,
                    Some(("zipf", theta)) => Skew::Zipf {
                        theta: parse(theta)?,
                    },
                    _ => return Err(format!("unknown skew {v:?} (uniform | zipf:THETA)")),
                };
            }
            "--help" | "-h" => {
                println!(
                    "usage: workload [--nodes N] [--density F] [--queries N] [--workers N]\n\
                     \x20               [--shards N] [--pool-pages N] [--skew uniform|zipf:THETA]\n\
                     \x20               [--seed N] [--sweep] [--updates N] [--update-rate F]\n\
                     \x20               [--fault-rate F] [--corrupt-rate F] [--fault-seed N]\n\
                     \x20               [--backend B] [--partitions K]\n\
                     \x20               [--store mem|file|mmap] [--batch on|off]\n\
                     \x20               [--readahead N] [--deadline-us N] [--spike-rate F]\n\
                     \x20               [--spike-us N]\n\
                     \n\
                     --update-rate F   mixed read/update mode: run the batch twice (read-only\n\
                     \x20                 baseline, then with a concurrent updater thread\n\
                     \x20                 publishing round(F x 8) epoch swaps) and report how\n\
                     \x20                 much maintenance latency the double-buffered swap hid\n\
                     \x20                 from reader p99\n\
                     --fault-rate F    inject read failures on fraction F of physical reads\n\
                     --corrupt-rate F  inject page corruption on fraction F of physical reads\n\
                     --fault-seed N    seed for the deterministic fault stream\n\
                     --backend B       query engine: signature (default), ine (Dijkstra\n\
                     \x20                 expansion), hl (hub labels: bucket scans for\n\
                     \x20                 kNN/join, merges otherwise), or sharded (partition\n\
                     \x20                 router)\n\
                     --partitions K    split the network into K regions with one signature\n\
                     \x20                 index each (default 1 = single index); K > 1\n\
                     \x20                 auto-selects the sharded backend unless --backend\n\
                     \x20                 says otherwise\n\
                     --store M         physical page store: mem (default, accounting-only),\n\
                     \x20                 file (pread from a checksummed page file), or mmap\n\
                     --batch on|off    batched prefetch: on = readahead window of 8 pages +\n\
                     \x20                 frontier prefetch, off (default) = single-page reads\n\
                     --readahead N     explicit readahead window in pages (overrides --batch)\n\
                     --deadline-us N   per-query latency deadline for SLO admission control;\n\
                     \x20                 over-deadline load is shed onto the exact in-memory\n\
                     \x20                 backend (0 = off)\n\
                     --spike-rate F    inject latency spikes on fraction F of physical reads\n\
                     --spike-us N      spike stall duration in microseconds (default 200)"
                );
                std::process::exit(0);
            }
            other => match other.split_once('=') {
                // Long flags also accept the `--flag=value` spelling; feed
                // the split pieces back through the same machinery.
                Some(("--backend", v)) => {
                    args.backend = v.parse()?;
                    args.backend_explicit = true;
                }
                Some(("--partitions", v)) => args.partitions = parse(v)?,
                Some(("--update-rate", v)) => args.update_rate = parse(v)?,
                Some(("--store", v)) => args.store = v.parse()?,
                Some(("--readahead", v)) => args.readahead = parse(v)?,
                Some(("--batch", v)) => {
                    args.readahead = match v {
                        "on" => 8,
                        "off" => 0,
                        other => return Err(format!("bad --batch {other:?} (on | off)")),
                    }
                }
                Some(("--deadline-us", v)) => args.deadline_us = parse(v)?,
                Some(("--spike-rate", v)) => args.spike_rate = parse(v)?,
                Some(("--spike-us", v)) => args.spike_us = parse(v)?,
                _ => return Err(format!("unknown flag {other:?} (try --help)")),
            },
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad value {s:?}"))
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("workload: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Partitioned runs route through the shard router unless the user
    // explicitly pinned another backend (e.g. to A/B against `signature`).
    if args.partitions > 1 && !args.backend_explicit {
        args.backend = Backend::Sharded;
    }
    let args = args;

    let mut rng = StdRng::seed_from_u64(args.seed);
    let net = random_planar(
        &PlanarConfig {
            num_nodes: args.nodes,
            ..Default::default()
        },
        &mut rng,
    );
    let objects = ObjectSet::uniform(&net, args.object_density, &mut rng);
    println!(
        "network: {} nodes, {} edges, {} objects",
        net.num_nodes(),
        net.num_edges(),
        objects.len()
    );

    let fault_plan = if args.fault_rate > 0.0 || args.corrupt_rate > 0.0 || args.spike_rate > 0.0 {
        println!(
            "faults: {:.3}% read-fail, {:.3}% corrupt, {:.3}% spike x {}µs (seed {})",
            args.fault_rate * 100.0,
            args.corrupt_rate * 100.0,
            args.spike_rate * 100.0,
            args.spike_us,
            args.fault_seed
        );
        FaultPlan {
            seed: args.fault_seed,
            read_fail: args.fault_rate,
            corrupt: args.corrupt_rate,
            spike: args.spike_rate,
            spike_delay: std::time::Duration::from_micros(args.spike_us),
        }
    } else {
        FaultPlan::none()
    };
    let service = QueryService::new(
        net,
        objects,
        &SignatureConfig::default(),
        &ServiceConfig {
            shards: args.shards,
            pool_pages: args.pool_pages,
            fault_plan,
            partitions: args.partitions,
            store: args.store,
            readahead: args.readahead,
            deadline_us: args.deadline_us,
            ..Default::default()
        },
    );
    println!("backend: {}", args.backend.label());
    println!(
        "store: {} (readahead {})",
        args.store.label(),
        args.readahead
    );
    if args.deadline_us > 0 {
        println!("deadline: {}µs", args.deadline_us);
    }
    if service.num_partitions() > 1 {
        println!("partitions: {}", service.num_partitions());
    }
    let net = service.net();
    let batch = generate(
        &net,
        &WorkloadConfig {
            skew: args.skew,
            count: args.queries,
            seed: args.seed ^ 0x9E37_79B9,
            ..Default::default()
        },
    );

    let worker_counts: Vec<usize> = if args.sweep {
        let mut w = 1;
        std::iter::from_fn(|| {
            let cur = w;
            w *= 2;
            (cur <= args.workers).then_some(cur)
        })
        .collect()
    } else {
        vec![args.workers]
    };

    for &workers in &worker_counts {
        service.reset_stats();
        let report = service.serve_batch_on(args.backend, &batch, workers);
        println!("\n== {workers} worker(s) ==\n{}", report.summary());
        // Machine-readable counters for scripts (scripts/bench_io.sh).
        let io = &report.io;
        let pages_per_call = if io.batched_reads > 0 {
            io.batch_pages as f64 / io.batched_reads as f64
        } else {
            0.0
        };
        println!(
            "io_logical={} io_faults={} physical_reads={} batched_reads={} batch_pages={} \
             pages_per_call={pages_per_call:.2} prefetch_hits={} prefetch_wasted={} shed={} \
             deadline_miss={} label_lookups={} label_entries={} worst_p99_ns={} qps={:.1}",
            io.logical,
            io.faults,
            io.physical_reads(),
            io.batched_reads,
            io.batch_pages,
            io.prefetch_hits,
            io.prefetch_wasted,
            report.shed,
            report.deadline_misses,
            report.ops.label_lookups,
            report.ops.label_entries_scanned,
            report.worst_p99_ns(),
            report.throughput_qps()
        );
    }

    if args.updates > 0 {
        let updates = generate_updates(&net, args.updates, args.seed ^ 0xDEAD_BEEF);
        // Surface a journal/publish I/O failure instead of panicking — the
        // updates may still be durable (see `try_apply_updates` docs), but
        // a driver run that hit one should fail loudly.
        let reports = match service.try_apply_updates(&updates) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("workload: applying updates failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let changed: usize = reports.iter().map(|r| r.entries_changed).sum();
        println!(
            "\napplied {} edge updates (epoch {}): {} signature entries changed",
            reports.len(),
            service.epoch(),
            changed
        );
        let report = service.serve_batch_on(args.backend, &batch, args.workers);
        println!(
            "\n== post-update, {} worker(s) ==\n{}",
            args.workers,
            report.summary()
        );
    }

    if args.update_rate > 0.0 {
        if let Err(e) = run_mixed(&service, &batch, &args) {
            eprintln!("workload: mixed read/update mode failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    println!("\n{}", service.stats_dump());
    ExitCode::SUCCESS
}

/// Minimum reader rounds per mixed pass; the pass keeps serving rounds
/// until the updater thread has drained its batches (bounded by
/// `MIXED_ROUND_CAP`), so the tail is actually measured *during* catch-up.
const MIXED_ROUNDS: usize = 8;
/// Edge updates per concurrent update batch in mixed mode.
const MIXED_BATCH_EDGES: usize = 8;
/// Safety valve on reader rounds (the updater observes the readers
/// stopping and cuts its remaining batches short).
const MIXED_ROUND_CAP: usize = 256;

/// The mixed read/update mode (`--update-rate`): serve the query batch in
/// repeated reader rounds while an updater thread drives double-buffered
/// epoch publishes, then replay the *same number* of read-only rounds for
/// a baseline, and report the update-latency-hiding ratio (worst per-round
/// reader p99 with maintenance over without). Zero-pause maintenance keeps
/// that ratio near CPU-sharing noise; stop-the-world maintenance would put
/// whole rebuild latencies (hundreds of ms) into the reader tail.
fn run_mixed(
    service: &QueryService,
    batch: &[dsi_service::Query],
    args: &Args,
) -> Result<(), String> {
    let net = service.net();
    let update_batches = ((args.update_rate * MIXED_ROUNDS as f64).round() as usize).max(1);

    // Warm round so neither pass pays the cold-start tail.
    service.serve_batch_on(args.backend, batch, args.workers);

    // Mixed pass: reader rounds run until the updater has drained.
    let epoch_before = service.epoch();
    let updater_done = AtomicBool::new(false);
    let readers_stopped = AtomicBool::new(false);
    let mut mixed_rounds: Vec<u64> = Vec::new();
    let mut swaps = 0u64;
    let mut stale = 0u64;
    let update_err = std::thread::scope(|scope| {
        let updater = scope.spawn(|| {
            for i in 0..update_batches {
                if readers_stopped.load(Ordering::Acquire) {
                    break; // readers hit the round cap; stop measuring
                }
                let ups =
                    generate_updates(&net, MIXED_BATCH_EDGES, args.seed ^ 0xBEEF_0000 ^ i as u64);
                service.try_apply_updates(&ups).map_err(|e| e.to_string())?;
            }
            updater_done.store(true, Ordering::Release);
            Ok::<(), String>(())
        });
        while !updater_done.load(Ordering::Acquire) || mixed_rounds.len() < MIXED_ROUNDS {
            let r = service.serve_batch_on(args.backend, batch, args.workers);
            mixed_rounds.push(r.worst_p99_ns());
            swaps += r.ops.epoch_swaps;
            stale += r.ops.stale_epoch_reads;
            if mixed_rounds.len() >= MIXED_ROUND_CAP {
                break;
            }
        }
        readers_stopped.store(true, Ordering::Release);
        updater.join().expect("updater thread")
    });
    update_err?;
    let applied = service.epoch() - epoch_before;

    // Baseline: the same number of read-only rounds on the settled state.
    let base_rounds: Vec<u64> = (0..mixed_rounds.len())
        .map(|_| {
            service
                .serve_batch_on(args.backend, batch, args.workers)
                .worst_p99_ns()
        })
        .collect();

    // Median round rather than max: the tiniest class's per-round p99 is a
    // max of ~20 samples, so a max-of-rounds aggregate measures scheduler
    // jitter, not maintenance. The median round *during catch-up* is the
    // tail a steady reader actually sees while epochs publish behind it.
    let median = |mut v: Vec<u64>| -> u64 {
        v.sort_unstable();
        v.get(v.len() / 2).copied().unwrap_or(0)
    };
    let mixed_p99 = median(mixed_rounds.clone());
    let base_p99 = median(base_rounds);
    let ratio = if base_p99 > 0 {
        mixed_p99 as f64 / base_p99 as f64
    } else {
        1.0
    };
    println!(
        "\n== mixed read/update ({applied}/{update_batches} update batches x {MIXED_BATCH_EDGES} edges, {} reader rounds) ==",
        mixed_rounds.len()
    );
    println!(
        "  epochs {} -> {} ({swaps} swaps observed in-batch, {stale} stale-epoch reads)",
        epoch_before,
        service.epoch()
    );
    println!(
        "  reader p99 (median round): {:.1}\u{b5}s baseline -> {:.1}\u{b5}s under maintenance (ratio {ratio:.2}x)",
        base_p99 as f64 / 1e3,
        mixed_p99 as f64 / 1e3
    );
    println!("p99_baseline_ns={base_p99} p99_concurrent_ns={mixed_p99} p99_ratio={ratio:.4} epoch_swaps={swaps}");
    Ok(())
}
