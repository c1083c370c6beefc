//! SLO-aware admission control.
//!
//! With a nonzero [`ServiceConfig::deadline_us`](crate::ServiceConfig::deadline_us),
//! the paged backends estimate each query's completion time — a per-class
//! EWMA of fast-path latency plus the queue still ahead of it — and *shed*
//! a query that would blow the deadline straight onto the epoch's exact
//! in-memory label oracle. The answer stays exact; only the paged fast
//! path is skipped.

use std::sync::atomic::Ordering;

use crate::engine::QueryService;
use crate::workload::QueryClass;

impl QueryService {
    /// The admission deadline in nanoseconds (0 = admission off).
    pub(crate) fn deadline_ns(&self) -> u64 {
        self.cfg.deadline_us.saturating_mul(1_000)
    }

    /// Whether the admission estimator predicts a `class` query pulled now,
    /// with `queued` queries still waiting behind it on `workers` threads,
    /// would finish past the deadline. Conservative on cold estimators: a
    /// class with no completed fast-path sample yet is always admitted.
    pub(crate) fn should_shed(&self, class: QueryClass, queued: usize, workers: usize) -> bool {
        let deadline_ns = self.deadline_ns();
        if deadline_ns == 0 {
            return false;
        }
        let mine = self.class_ewma[class as usize].load(Ordering::Relaxed);
        if mine == 0 {
            return false;
        }
        // Queue-depth term: the mean tracked fast-path latency is the drain
        // rate of the work still ahead of this query's completion.
        let (sum, n) = self.class_ewma.iter().fold((0u64, 0u64), |(s, n), e| {
            let v = e.load(Ordering::Relaxed);
            if v > 0 {
                (s + v, n + 1)
            } else {
                (s, n)
            }
        });
        let wait = (queued as u64 / workers.max(1) as u64).saturating_mul(sum / n.max(1));
        mine.saturating_add(wait) > deadline_ns
    }

    /// Fold one fast-path completion into the per-class latency EWMA
    /// (quarter-weight on the new sample; races just lose an update).
    pub(crate) fn note_latency(&self, class: QueryClass, ns: u64) {
        let slot = &self.class_ewma[class as usize];
        let old = slot.load(Ordering::Relaxed);
        let next = if old == 0 { ns } else { (3 * old + ns) / 4 };
        slot.store(next, Ordering::Relaxed);
    }
}
