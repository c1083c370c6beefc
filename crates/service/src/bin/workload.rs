//! Command-line workload driver for the query service.
//!
//! Builds a random planar network + uniform object set, generates a seeded
//! query batch, serves it on a configurable worker count, and prints
//! per-class latency percentiles, throughput and I/O counters. With
//! `--sweep`, serves the same batch at 1/2/4/... workers for a scaling
//! table; with `--updates N`, applies N random edge updates between two
//! batches to exercise the maintenance epoch.
//!
//! This is a demonstration surface, not a measurement protocol: numbers
//! that decide anything come from `perfbench/` (see `BENCHMARK.json`), and
//! the paper's tables and figures from the `repro_*` binaries of
//! `crates/bench`.
//!
//! Example:
//! ```text
//! cargo run --release -p dsi-service --bin workload -- \
//!     --nodes 5000 --queries 2000 --workers 4 --skew zipf:0.8
//! ```

use std::process::ExitCode;

use dsi_graph::generate::{random_planar, PlanarConfig};
use dsi_graph::ObjectSet;
use dsi_service::{
    generate, generate_updates, Backend, QueryService, ServiceConfig, Skew, WorkloadConfig,
};
use dsi_signature::SignatureConfig;
use dsi_storage::{FaultPlan, StoreMode};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fraction of nodes that carry an object.
const OBJECT_DENSITY: f64 = 0.02;

struct Args {
    nodes: usize,
    queries: usize,
    workers: usize,
    skew: Skew,
    seed: u64,
    sweep: bool,
    updates: usize,
    fault_rate: f64,
    corrupt_rate: f64,
    fault_seed: u64,
    /// The `--backend` pick; without one, `--partitions` > 1 selects the
    /// sharded router and anything else the signature index.
    backend: Option<Backend>,
    partitions: usize,
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
            queries: 1000,
            workers: 4,
            skew: Skew::Zipf { theta: 0.8 },
            seed: 42,
            sweep: false,
            updates: 0,
            fault_rate: 0.0,
            corrupt_rate: 0.0,
            fault_seed: 0xFA01,
            backend: None,
            partitions: 1,
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
            "--queries" => args.queries = parse(&value("--queries")?)?,
            "--workers" => args.workers = parse(&value("--workers")?)?,
            "--seed" => args.seed = parse(&value("--seed")?)?,
            "--updates" => args.updates = parse(&value("--updates")?)?,
            "--fault-rate" => args.fault_rate = parse(&value("--fault-rate")?)?,
            "--corrupt-rate" => args.corrupt_rate = parse(&value("--corrupt-rate")?)?,
            "--fault-seed" => args.fault_seed = parse(&value("--fault-seed")?)?,
            "--backend" => args.backend = Some(value("--backend")?.parse()?),
            "--partitions" => args.partitions = parse(&value("--partitions")?)?,
            "--store" => args.store = value("--store")?.parse()?,
            "--readahead" => args.readahead = parse(&value("--readahead")?)?,
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
                    "usage: workload [--nodes N] [--queries N] [--workers N]\n\
                     \x20               [--skew uniform|zipf:THETA] [--seed N] [--sweep]\n\
                     \x20               [--updates N] [--fault-rate F] [--corrupt-rate F]\n\
                     \x20               [--fault-seed N] [--backend B] [--partitions K]\n\
                     \x20               [--store mem|file|mmap] [--readahead N]\n\
                     \x20               [--deadline-us N] [--spike-rate F] [--spike-us N]\n\
                     \n\
                     --nodes N         network size, at least 2 (default 2000; 2 % of the\n\
                     \x20                 nodes carry an object)\n\
                     --updates N       apply N random edge updates, then serve the batch\n\
                     \x20                 again on the new epoch\n\
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
                     --readahead N     readahead window in pages (default 0 = single-page\n\
                     \x20                 reads)\n\
                     --deadline-us N   per-query latency deadline for SLO admission control;\n\
                     \x20                 over-deadline load is shed onto the exact in-memory\n\
                     \x20                 backend (0 = off)\n\
                     --spike-rate F    inject latency spikes on fraction F of physical reads\n\
                     --spike-us N      spike stall duration in microseconds (default 200)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    // The planar generator needs two nodes to lay an edge.
    if args.nodes < 2 {
        return Err("--nodes must be at least 2".into());
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad value {s:?}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("workload: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Partitioned runs route through the shard router unless the user
    // explicitly pinned another backend (e.g. to A/B against `signature`).
    let backend = args.backend.unwrap_or(if args.partitions > 1 {
        Backend::Sharded
    } else {
        Backend::Signature
    });

    let mut rng = StdRng::seed_from_u64(args.seed);
    let net = random_planar(
        &PlanarConfig {
            num_nodes: args.nodes,
            ..Default::default()
        },
        &mut rng,
    );
    let objects = ObjectSet::uniform(&net, OBJECT_DENSITY, &mut rng);
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
            fault_plan,
            partitions: args.partitions,
            store: args.store,
            readahead: args.readahead,
            deadline_us: args.deadline_us,
            ..Default::default()
        },
    );
    println!("backend: {}", backend.label());
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
        let report = service.serve_batch_on(backend, &batch, workers);
        println!("\n== {workers} worker(s) ==\n{}", report.summary());
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
        let report = service.serve_batch_on(backend, &batch, args.workers);
        println!(
            "\n== post-update, {} worker(s) ==\n{}",
            args.workers,
            report.summary()
        );
    }

    println!("\n{}", service.stats_dump());
    ExitCode::SUCCESS
}
