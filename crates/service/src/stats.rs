//! Latency accounting for batch execution: per-class percentiles and
//! batch-level throughput / IO summaries.

use std::collections::BTreeMap;
use std::time::Duration;

use dsi_signature::OpStats;
use dsi_storage::IoStats;

use crate::engine::QueryOutput;
use crate::workload::QueryClass;

/// Latency summary for one query class within a batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassStats {
    /// Queries of this class in the batch.
    pub count: usize,
    /// Median latency, nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile latency, nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile latency, nanoseconds.
    pub p99_ns: u64,
    /// Worst observed latency, nanoseconds.
    pub max_ns: u64,
    /// Mean latency, nanoseconds.
    pub mean_ns: u64,
}

impl ClassStats {
    /// Nearest-rank percentiles over one class's latencies.
    pub fn from_latencies(ns: &mut [u64]) -> ClassStats {
        if ns.is_empty() {
            return ClassStats::default();
        }
        ns.sort_unstable();
        let pct = |p: f64| {
            // Nearest-rank: smallest value with at least p of the mass at
            // or below it.
            let rank = ((p * ns.len() as f64).ceil() as usize).clamp(1, ns.len());
            ns[rank - 1]
        };
        ClassStats {
            count: ns.len(),
            p50_ns: pct(0.50),
            p95_ns: pct(0.95),
            p99_ns: pct(0.99),
            max_ns: *ns.last().expect("non-empty"),
            mean_ns: (ns.iter().sum::<u64>() / ns.len() as u64),
        }
    }
}

/// Per-partition counters for the sharded backend: queries routed to the
/// partition, its session stripe's page accesses, and hub-label glue
/// lookups performed while stitching cross-partition answers. Appears both
/// as a cumulative snapshot (the partition lines of
/// [`crate::QueryService::stats_dump`]) and as a per-batch delta
/// ([`BatchReport::per_part`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartStats {
    /// Queries whose ladder ran on this partition's stripe (a join runs on
    /// the epoch's single index and counts on no partition).
    pub queries: u64,
    /// Page accesses charged to this partition's session.
    pub io: IoStats,
    /// Boundary labels read by this partition's glue merges — the
    /// per-partition share of [`OpStats::label_lookups`].
    pub label_lookups: u64,
}

impl std::ops::Sub for PartStats {
    type Output = PartStats;

    fn sub(self, rhs: PartStats) -> PartStats {
        PartStats {
            queries: self.queries - rhs.queries,
            io: self.io - rhs.io,
            label_lookups: self.label_lookups - rhs.label_lookups,
        }
    }
}

/// Everything a [`crate::QueryService::serve_batch`] call produces: ordered
/// outputs plus cost accounting for the whole batch.
#[derive(Debug)]
pub struct BatchReport {
    /// Label of the backend that served the batch
    /// ([`crate::Backend::label`]).
    pub backend: &'static str,
    /// One output per input query, in input order.
    pub outputs: Vec<QueryOutput>,
    /// Per query, in input order: whether it was answered by the epoch's
    /// hub-label oracle after exhausting its storage-fault retry budget.
    /// Degraded answers are still exact — only the fast path was skipped.
    pub degraded: Vec<bool>,
    /// Wall-clock time for the whole batch.
    pub wall: Duration,
    /// Worker threads used.
    pub workers: usize,
    /// Page-access delta over the batch, merged across shards. `logical`
    /// is schedule-independent; `faults` depend on interleaving.
    pub io: IoStats,
    /// Operation-counter delta over the batch, merged across shards. The
    /// label counters also fold in the sessionless label work of the
    /// hub-label backend and the in-memory fallbacks: `label_lookups` is
    /// one per bucket scan (kNN query, join source object) plus one per
    /// `p2p` merge (per object per range / aggregate query),
    /// `label_entries_scanned` the label and bucket entries they walked.
    pub ops: OpStats,
    /// Per-partition deltas over the batch, in partition order — queries
    /// routed, page accesses, label-glue lookups. Empty unless the
    /// service routes across partitions
    /// ([`crate::ServiceConfig::partitions`] > 1).
    pub per_part: Vec<PartStats>,
    /// Latency percentiles per query class (classes absent from the batch
    /// are omitted).
    pub per_class: BTreeMap<&'static str, ClassStats>,
    /// Queries admission control shed onto the exact in-memory backend
    /// (still exact answers; distinct from fault-degraded queries). Always
    /// 0 without a configured deadline.
    pub shed: usize,
    /// Completed queries whose measured latency exceeded the deadline
    /// (shed queries included). Always 0 without a configured deadline.
    pub deadline_misses: usize,
    /// The deadline the batch ran under, nanoseconds (0 = admission off).
    pub deadline_ns: u64,
}

impl BatchReport {
    /// Queries per second over the batch wall-clock.
    pub fn throughput_qps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.outputs.len() as f64 / secs
    }

    /// Queries answered by the degraded path (the label oracle).
    pub fn degraded_count(&self) -> usize {
        self.degraded.iter().filter(|&&d| d).count()
    }

    /// Multi-line human-readable summary (workload driver, service logs).
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{} queries on {}, {} workers: {:.1} q/s over {:.3} ms\n  io: {}\n  ops: {} sig reads, {} entry reads, {} hops, {} exact + {} approx comparisons\n",
            self.outputs.len(),
            self.backend,
            self.workers,
            self.throughput_qps(),
            self.wall.as_secs_f64() * 1e3,
            self.io,
            self.ops.signature_reads,
            self.ops.entry_reads,
            self.ops.hops,
            self.ops.exact_comparisons,
            self.ops.approx_comparisons,
        );
        let decode_probes = self.ops.decode_cache_hits + self.ops.decode_cache_misses;
        let entry_probes = self.ops.entry_cache_hits + self.ops.entry_cache_misses;
        if decode_probes > 0 || entry_probes > 0 {
            out.push_str(&format!(
                "  cache: decode {}/{} hits, entry {}/{} hits\n",
                self.ops.decode_cache_hits, decode_probes, self.ops.entry_cache_hits, entry_probes,
            ));
        }
        if self.ops.epoch_swaps > 0 || self.ops.stale_epoch_reads > 0 {
            out.push_str(&format!(
                "  maintenance: {} epoch swaps, {} stale-epoch reads (consistent, pinned snapshots)\n",
                self.ops.epoch_swaps, self.ops.stale_epoch_reads,
            ));
        }
        if self.deadline_ns > 0 {
            out.push_str(&format!(
                "  admission: {} shed, {} deadline misses of {} queries (deadline {})\n",
                self.shed,
                self.deadline_misses,
                self.outputs.len(),
                fmt_ns(self.deadline_ns),
            ));
        }
        if self.ops.retries > 0 || self.degraded_count() > 0 {
            out.push_str(&format!(
                "  faults: {} retries, {} degraded of {} queries\n",
                self.ops.retries,
                self.degraded_count(),
                self.outputs.len(),
            ));
        }
        if self.ops.label_lookups > 0 {
            out.push_str(&format!(
                "  labels: {} lookups, {} entries walked ({:.1} per lookup)\n",
                self.ops.label_lookups,
                self.ops.label_entries_scanned,
                self.ops.label_entries_scanned as f64 / self.ops.label_lookups as f64,
            ));
        }
        for (p, ps) in self.per_part.iter().enumerate() {
            if ps.queries > 0 || ps.io.logical > 0 {
                out.push_str(&format!(
                    "  partition p{p}: {} queries | io: {} | {} label lookups\n",
                    ps.queries, ps.io, ps.label_lookups,
                ));
            }
        }
        for class in QueryClass::ALL {
            if let Some(s) = self.per_class.get(class.label()) {
                out.push_str(&format!(
                    "  {:<9} n={:<5} p50={} p95={} p99={} max={}\n",
                    class.label(),
                    s.count,
                    fmt_ns(s.p50_ns),
                    fmt_ns(s.p95_ns),
                    fmt_ns(s.p99_ns),
                    fmt_ns(s.max_ns),
                ));
            }
        }
        out
    }
}

/// `1234` → `"1.2µs"`, etc. — keeps the summary table scannable.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Fold per-query `(class, ns)` samples into per-class summaries.
pub(crate) fn per_class_stats(
    samples: impl IntoIterator<Item = (QueryClass, u64)>,
) -> BTreeMap<&'static str, ClassStats> {
    let mut buckets: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (class, ns) in samples {
        buckets.entry(class.label()).or_default().push(ns);
    }
    buckets
        .into_iter()
        .map(|(label, mut ns)| (label, ClassStats::from_latencies(&mut ns)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut ns: Vec<u64> = (1..=100).collect();
        let s = ClassStats::from_latencies(&mut ns);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ns, 50);
        assert_eq!(s.p95_ns, 95);
        assert_eq!(s.p99_ns, 99);
        assert_eq!(s.max_ns, 100);
        assert_eq!(s.mean_ns, 50); // (5050 / 100) truncated
    }

    #[test]
    fn single_sample_percentiles_collapse() {
        let mut ns = vec![7];
        let s = ClassStats::from_latencies(&mut ns);
        assert_eq!((s.p50_ns, s.p95_ns, s.p99_ns, s.max_ns), (7, 7, 7, 7));
    }

    #[test]
    fn empty_class_is_all_zero() {
        let s = ClassStats::from_latencies(&mut []);
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_ns, 0);
    }

    #[test]
    fn per_class_grouping() {
        let stats = per_class_stats([
            (QueryClass::Range, 10),
            (QueryClass::Knn, 30),
            (QueryClass::Range, 20),
        ]);
        assert_eq!(stats["range"].count, 2);
        assert_eq!(stats["knn"].count, 1);
        assert!(!stats.contains_key("join"));
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
