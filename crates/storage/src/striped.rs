//! Lock striping for shared read paths.
//!
//! A single [`BufferPool`] behind one mutex serializes every reader; a pool
//! *per thread* loses the shared working set and makes page-access totals
//! depend on scheduling. [`Striped`] is the middle ground the concurrent
//! query service uses: state is split into `S` shards, a deterministic hash
//! of a routing key (for the service: the query node id) picks the shard,
//! and each shard sits behind its own mutex. Two properties follow:
//!
//! * **parallelism** — threads touching different shards never contend;
//! * **determinism** — the *set* of accesses each shard sees depends only on
//!   the keys routed to it, not on how many worker threads raced, so
//!   order-independent counters (logical page reads, operation counts)
//!   merge to identical totals under any schedule.
//!
//! The striped *thing* is generic: the service stripes whole query-session
//! states.

use std::sync::{Mutex, MutexGuard};

/// `S` shards of `T`, each behind its own mutex, with deterministic
/// key → shard routing.
#[derive(Debug)]
pub struct Striped<T> {
    shards: Box<[Mutex<T>]>,
}

impl<T> Striped<T> {
    /// `num_shards` shards built by `make(shard_index)`. At least one shard
    /// is always created.
    pub fn new(num_shards: usize, mut make: impl FnMut(usize) -> T) -> Self {
        let n = num_shards.max(1);
        Striped {
            shards: (0..n).map(|i| Mutex::new(make(i))).collect(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Deterministic shard index for a routing key (Fibonacci hashing — a
    /// single multiply that spreads consecutive node ids well).
    pub fn shard_of(&self, key: u64) -> usize {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // High bits carry the mix; fold them over the shard count.
        ((h >> 32) as usize) % self.shards.len()
    }

    /// Lock the shard owning `key`.
    pub fn lock(&self, key: u64) -> MutexGuard<'_, T> {
        self.lock_shard(self.shard_of(key))
    }

    /// Lock shard `i` directly (stats sweeps, epoch broadcasts).
    ///
    /// # Panics
    /// If a holder of the shard's lock panicked (poisoned mutex).
    pub fn lock_shard(&self, i: usize) -> MutexGuard<'_, T> {
        self.shards[i].lock().expect("shard poisoned")
    }

    /// Lock and visit every shard in index order (one at a time — callers
    /// must not hold another shard's guard while iterating).
    pub fn for_each(&self, mut f: impl FnMut(usize, &mut T)) {
        for (i, shard) in self.shards.iter().enumerate() {
            f(i, &mut shard.lock().expect("shard poisoned"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPool;

    fn pools(num_shards: usize, pages: usize) -> Striped<BufferPool> {
        Striped::new(num_shards, |_| BufferPool::new(pages))
    }

    fn logical(s: &Striped<BufferPool>) -> u64 {
        let mut total = 0;
        s.for_each(|_, pool| total += pool.stats().logical);
        total
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let s = pools(8, 4);
        for key in 0..1000u64 {
            let a = s.shard_of(key);
            assert_eq!(a, s.shard_of(key));
            assert!(a < 8);
        }
    }

    #[test]
    fn routing_spreads_consecutive_keys() {
        let s = pools(8, 4);
        let mut used = [false; 8];
        for key in 0..64u64 {
            used[s.shard_of(key)] = true;
        }
        assert!(
            used.iter().all(|&u| u),
            "64 consecutive keys hit all 8 shards"
        );
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let s = pools(0, 4);
        assert_eq!(s.num_shards(), 1);
        assert_eq!(s.shard_of(42), 0);
    }

    #[test]
    fn concurrent_access_totals_match_serial() {
        // The determinism claim: logical totals are schedule-independent.
        let keys: Vec<u64> = (0..2000).map(|i| (i * 31) % 257).collect();
        let serial = pools(8, 16);
        for &k in &keys {
            serial.lock(k).access(k as u32);
        }
        let striped = pools(8, 16);
        std::thread::scope(|sc| {
            for chunk in keys.chunks(500) {
                let striped = &striped;
                sc.spawn(move || {
                    for &k in chunk {
                        striped.lock(k).access(k as u32);
                    }
                });
            }
        });
        assert_eq!(logical(&striped), logical(&serial));
    }
}
