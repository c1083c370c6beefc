//! The one table of workloads and metrics. The runner, `--list`,
//! `--emit-benchmark-json`, `--selfcheck` and the README all read these
//! arrays, so `BENCHMARK.json` cannot drift from what a run prints (a test
//! compares the committed file with [`benchmark_json`]).

use dsi_service::{Backend, ServiceConfig, Skew, StoreMode};

use crate::json::Value;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 18;

/// Input scale. Everything else about the inputs is fixed by the workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Network nodes.
    pub nodes: usize,
    /// Divisor applied to every round's query count (`--smoke` shrinks
    /// rounds along with the network).
    pub round_div: usize,
}

impl Scale {
    /// The benchmark's scale: the paper's synthetic network, 16,000 nodes.
    pub const FULL: Scale = Scale {
        nodes: 16_000,
        round_div: 1,
    };
    /// `--smoke` and the harness tests.
    pub const SMOKE: Scale = Scale {
        nodes: 2_000,
        round_div: 8,
    };
}

/// One workload: which backend serves, how the service is sized, and how
/// much traffic a round carries.
pub struct Workload {
    pub name: &'static str,
    /// Why this workload exists (one line; goes into `BENCHMARK.json`).
    pub why: &'static str,
    pub backend: Backend,
    pub skew: Skew,
    /// Point queries per cold/hot round at full scale.
    pub point_queries: usize,
    /// Joins per join round at full scale.
    pub joins: usize,
    /// Session stripes of the single index, and buffer pages per stripe.
    pub shards: usize,
    pub pool_pages: usize,
    pub partitions: usize,
    pub store: StoreMode,
}

impl Workload {
    /// Service sizing for this workload. Faults, deadline and readahead
    /// stay at their defaults (off): one closed-loop client, no injected
    /// failures, so every query must take the fast path.
    pub fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            shards: self.shards,
            pool_pages: self.pool_pages,
            partitions: self.partitions,
            store: self.store,
            ..ServiceConfig::default()
        }
    }
}

const ZIPF: Skew = Skew::Zipf { theta: 0.99 };

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sig_hot",
        why: "Signature backend, pool holds the whole image, Zipf nodes: codec, decode caches and operators do the work; storage idles",
        backend: Backend::Signature,
        skew: ZIPF,
        point_queries: 8000,
        joins: 30,
        shards: 4,
        pool_pages: 1024,
        partitions: 1,
        store: StoreMode::Mem,
    },
    Workload {
        name: "sig_cold",
        why: "Same backend, 4x64-page pools over a real page file, uniform nodes: working set >> pool, so buffer pool and pread+CRC dominate",
        backend: Backend::Signature,
        skew: Skew::Uniform,
        point_queries: 1000,
        joins: 10,
        shards: 4,
        pool_pages: 64,
        partitions: 1,
        store: StoreMode::File,
    },
    Workload {
        name: "oracle_hl",
        why: "Hub-label backend: memory-resident label merges only, zero pages; signature, storage and partition layers idle (no-regression cell)",
        backend: Backend::HubLabel,
        skew: ZIPF,
        point_queries: 6000,
        joins: 60,
        shards: 16,
        pool_pages: 64,
        partitions: 1,
        store: StoreMode::Mem,
    },
    Workload {
        name: "sharded_k4",
        why: "Shard router over 4 partitions: boundary pseudo-objects and label glue dominate (10x the pages per query of the single index)",
        backend: Backend::Sharded,
        skew: ZIPF,
        point_queries: 1000,
        joins: 20,
        shards: 4,
        pool_pages: 1024,
        partitions: 4,
        store: StoreMode::Mem,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a run prints. `bound` is set for end-to-end metrics only: the
/// share of the parent's median by which the metric may worsen.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
    /// What it measures (for `--list` and the README).
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a caller of the service sees. The same set for
/// every workload; every one is nonzero on every workload.
pub const END_TO_END: [Metric; 11] = [
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "QueryService::new wall (excludes input generation); median of 3 builds",
    ),
    e2e(
        "qps",
        "1/s",
        Higher,
        0.25,
        "point queries / BatchReport::wall per hot round; median over rounds",
    ),
    e2e(
        "cold_qps",
        "1/s",
        Higher,
        0.25,
        "the same for the first point round on each fresh epoch",
    ),
    e2e(
        "range_p50_us",
        "us",
        Lower,
        0.25,
        "per-round p50 latency of range queries; median over hot rounds",
    ),
    e2e(
        "knn_p50_us",
        "us",
        Lower,
        0.25,
        "per-round p50 latency of kNN queries; median over hot rounds",
    ),
    e2e(
        "agg_p50_us",
        "us",
        Lower,
        0.25,
        "per-round p50 latency of aggregate queries; median over hot rounds",
    ),
    e2e(
        "join_p50_ms",
        "ms",
        Lower,
        0.25,
        "per-round p50 latency of self eps-joins; median over join rounds",
    ),
    e2e(
        "tail_p95_us",
        "us",
        Lower,
        0.25,
        "max over the three point classes of per-round p95; median over hot rounds",
    ),
    e2e(
        "publish_p50_ms",
        "ms",
        Lower,
        0.25,
        "try_apply_updates wall for 8 edge updates (maintain + rebuild + swap)",
    ),
    e2e(
        "index_bytes_per_node",
        "B",
        Lower,
        0.05,
        "SignatureIndex::disk_bytes of the main index + HubLabels::label_bytes, per node, after two publishes",
    ),
    e2e(
        "rss_mb",
        "MiB",
        Lower,
        0.20,
        "VmRSS after set-up and the first cold round",
    ),
];

/// Per-layer metrics (`--trace 1`), named `crate.metric`.
pub const PER_LAYER: [Metric; 67] = [
    // graph: reference / INE cost only.
    layer(
        "graph.gen_s",
        "s",
        Lower,
        "random_planar + ObjectSet::uniform",
    ),
    layer(
        "graph.sssp_us",
        "us",
        Lower,
        "dsi_graph::sssp_into, full tree, p50",
    ),
    layer(
        "graph.sssp_bounded_us",
        "us",
        Lower,
        "sssp_bounded_into at the workload's largest eps, p50",
    ),
    // storage
    layer(
        "storage.pool_hit_ratio",
        "ratio",
        Higher,
        "IoStats::hit_ratio over the service's hot rounds",
    ),
    layer(
        "storage.physical_reads_per_query",
        "count",
        Lower,
        "IoStats::physical_reads per hot point query",
    ),
    layer(
        "storage.cold_faults_per_query",
        "count",
        Lower,
        "buffer faults per query in cold rounds",
    ),
    layer(
        "storage.read_page_us",
        "us",
        Lower,
        "PageFile::read_page (pread + CRC) of the index image, p50",
    ),
    layer(
        "storage.read_run8_us",
        "us",
        Lower,
        "PageFile::read_run of 8 adjacent pages, p50",
    ),
    layer(
        "storage.pool_hit_ns",
        "ns",
        Lower,
        "BufferPool::try_access on a resident page, mean",
    ),
    layer(
        "storage.pool_miss_us",
        "us",
        Lower,
        "BufferPool::try_access on an absent page (workload's store mode), mean",
    ),
    layer(
        "storage.page_image_bytes",
        "B",
        Lower,
        "SignatureIndex::page_image_bytes of the main index",
    ),
    // signature
    layer(
        "signature.build_s",
        "s",
        Lower,
        "SignatureIndex::build_with_hierarchy",
    ),
    layer(
        "signature.read_signature_us",
        "us",
        Lower,
        "Session::try_read_signature with cold decode cache, p50",
    ),
    layer(
        "signature.read_entry_ns",
        "ns",
        Lower,
        "Session::try_read_entry, warm, mean",
    ),
    layer(
        "signature.retrieve_exact_us",
        "us",
        Lower,
        "Session::try_retrieve_exact, p50",
    ),
    layer(
        "signature.range_us",
        "us",
        Lower,
        "Session::try_range called directly on the workload's sessions, p50",
    ),
    layer(
        "signature.knn_us",
        "us",
        Lower,
        "Session::try_knn (Type 1) called directly, p50",
    ),
    layer(
        "signature.agg_us",
        "us",
        Lower,
        "Session::try_aggregate called directly, p50",
    ),
    layer(
        "signature.join_ms",
        "ms",
        Lower,
        "try_self_epsilon_join called directly, p50",
    ),
    layer(
        "signature.sig_reads_per_query",
        "count",
        Lower,
        "OpStats::signature_reads per hot point query (service run)",
    ),
    layer(
        "signature.entry_reads_per_query",
        "count",
        Lower,
        "OpStats::entry_reads per hot point query",
    ),
    layer(
        "signature.hops_per_query",
        "count",
        Lower,
        "OpStats::hops per hot point query",
    ),
    layer(
        "signature.exact_cmp_per_query",
        "count",
        Lower,
        "OpStats::exact_comparisons per hot point query",
    ),
    layer(
        "signature.approx_cmp_per_query",
        "count",
        Lower,
        "OpStats::approx_comparisons per hot point query",
    ),
    layer(
        "signature.decode_cache_hit_ratio",
        "ratio",
        Higher,
        "decode cache hits / probes over hot rounds",
    ),
    layer(
        "signature.entry_cache_hit_ratio",
        "ratio",
        Higher,
        "entry cache hits / probes over hot rounds",
    ),
    layer(
        "signature.update_edge_ms",
        "ms",
        Lower,
        "SignatureMaintainer::update_edge, mean over the probe's updates",
    ),
    layer(
        "signature.entries_changed_per_update",
        "count",
        Lower,
        "UpdateReport::entries_changed per edge update",
    ),
    layer(
        "signature.disk_bytes_per_node",
        "B",
        Lower,
        "SignatureIndex::disk_bytes of the main index per node",
    ),
    // hierarchy
    layer(
        "hierarchy.ch_build_s",
        "s",
        Lower,
        "ContractionHierarchy::build",
    ),
    layer("hierarchy.hl_build_s", "s", Lower, "HubLabels::build"),
    layer(
        "hierarchy.ch_p2p_us",
        "us",
        Lower,
        "ContractionHierarchy::p2p query node -> object host, p50",
    ),
    layer(
        "hierarchy.hl_p2p_ns",
        "ns",
        Lower,
        "HubLabels::p2p query node -> object host, mean",
    ),
    layer(
        "hierarchy.hl_one_to_many_us",
        "us",
        Lower,
        "HubLabels::one_to_many over all object hosts, p50",
    ),
    layer(
        "hierarchy.label_entries_per_lookup",
        "count",
        Lower,
        "entries advanced per p2p_counted merge",
    ),
    layer(
        "hierarchy.label_bytes_per_node",
        "B",
        Lower,
        "HubLabels::label_bytes per node",
    ),
    layer(
        "hierarchy.avg_label_len",
        "count",
        Lower,
        "HubLabels::avg_label_len",
    ),
    // partition
    layer(
        "partition.build_s",
        "s",
        Lower,
        "PartitionedIndex::build, K = 4",
    ),
    layer(
        "partition.range_us",
        "us",
        Lower,
        "ShardedSessions::range called directly, p50",
    ),
    layer(
        "partition.knn_us",
        "us",
        Lower,
        "ShardedSessions::knn called directly, p50",
    ),
    layer(
        "partition.agg_us",
        "us",
        Lower,
        "ShardedSessions::aggregate called directly, p50",
    ),
    layer(
        "partition.join_ms",
        "ms",
        Lower,
        "ShardedSessions::join called directly, p50",
    ),
    layer(
        "partition.label_lookups_per_query",
        "count",
        Lower,
        "OpStats::label_lookups per direct point query",
    ),
    layer(
        "partition.label_entries_per_query",
        "count",
        Lower,
        "OpStats::label_entries_scanned per direct point query",
    ),
    layer(
        "partition.pages_per_query",
        "count",
        Lower,
        "logical page accesses per direct point query",
    ),
    layer(
        "partition.boundary_nodes",
        "count",
        Lower,
        "PartitionedIndex::num_boundary",
    ),
    layer(
        "partition.glue_label_bytes",
        "B",
        Lower,
        "label_bytes of the boundary glue labels",
    ),
    // baselines: comparator only (paper Figs. 6.5-6.6).
    layer(
        "baselines.ine_range_us",
        "us",
        Lower,
        "Ine::range on the same queries, p50",
    ),
    layer(
        "baselines.ine_knn_us",
        "us",
        Lower,
        "Ine::knn on the same queries, p50",
    ),
    // service
    layer(
        "service.pages_per_query",
        "count",
        Lower,
        "logical page accesses per hot point query (the paper's metric; 0 on oracle_hl)",
    ),
    layer(
        "service.faults_per_query",
        "count",
        Lower,
        "buffer faults per hot point query (0 on sig_hot)",
    ),
    layer(
        "service.failed_frac",
        "ratio",
        Lower,
        "mismatched + degraded + shed + errored operations / operations checked (must be 0)",
    ),
    layer(
        "service.batch_overhead_us",
        "us",
        Lower,
        "1-query serve_batch_on wall minus its reported latency, p50",
    ),
    layer(
        "service.dispatch_frac",
        "ratio",
        Lower,
        "(hot round wall - sum of query latencies) / wall",
    ),
    layer(
        "service.op_overhead_us",
        "us",
        Lower,
        "service range p50 minus the direct operator's range p50",
    ),
    layer(
        "service.epoch_swaps",
        "count",
        Lower,
        "publishes that swapped the live epoch (= publishes issued)",
    ),
    layer(
        "service.stale_epoch_reads",
        "count",
        Lower,
        "queries that finished on a superseded epoch (must be 0)",
    ),
    layer(
        "service.shed",
        "count",
        Lower,
        "queries shed by admission control (must be 0)",
    ),
    layer(
        "service.degraded",
        "count",
        Lower,
        "queries answered by the fallback ladder (must be 0)",
    ),
    layer(
        "service.retries",
        "count",
        Lower,
        "storage-fault retries (must be 0)",
    ),
    layer(
        "service.quarantines",
        "count",
        Lower,
        "shards quarantined (must be 0)",
    ),
    layer(
        "service.publish_ms",
        "ms",
        Lower,
        "try_apply_updates wall in the traced run, median",
    ),
    layer(
        "service.setup_s",
        "s",
        Lower,
        "QueryService::new wall in the traced run",
    ),
    // harness
    layer(
        "harness.trace_overhead_frac",
        "ratio",
        Lower,
        "1 - traced hot-round qps / untraced hot-round qps, same run",
    ),
    layer("harness.run_s", "s", Lower, "wall of the whole traced run"),
    layer(
        "harness.verify_s",
        "s",
        Lower,
        "wall spent checking outputs",
    ),
    layer(
        "harness.spans",
        "count",
        Lower,
        "spans recorded and written to the span file",
    ),
];

/// `BENCHMARK.json`, generated from the tables above.
pub fn benchmark_json() -> String {
    let obj = |pairs: Vec<(&str, Value)>| {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let s = |x: &str| Value::Str(x.to_string());
    let metric = |m: &Metric| {
        let mut fields = vec![
            ("name", s(m.name)),
            ("unit", s(m.unit)),
            ("better", s(m.better.label())),
        ];
        if let Some(b) = m.bound {
            fields.push(("bound", Value::Num(b)));
        }
        obj(fields)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "perfbench/Cargo.toml",
        "--",
    ];
    let root = obj(vec![
        (
            "command",
            Value::Array(command.iter().map(|c| s(c)).collect()),
        ),
        ("paths", Value::Array(vec![s("perfbench")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Value::Array(PER_LAYER.iter().map(metric).collect()),
        ),
    ]);
    root.pretty()
}

/// `--list`: workload and metric names, straight from the tables.
pub fn list() -> String {
    let mut out = String::from("workloads:\n");
    for w in &WORKLOADS {
        out.push_str(&format!("  {:<12} {}\n", w.name, w.why));
    }
    out.push_str("end-to-end metrics (name, unit, better, bound):\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "  {:<22} {:<6} {:<7} {:<5} {}\n",
            m.name,
            m.unit,
            m.better.label(),
            m.bound.expect("end-to-end metrics carry a bound"),
            m.what
        ));
    }
    out.push_str("per-layer metrics (name, unit, better):\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "  {:<36} {:<6} {:<7} {}\n",
            m.name,
            m.unit,
            m.better.label(),
            m.what
        ));
    }
    out
}
