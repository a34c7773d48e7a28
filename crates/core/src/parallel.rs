//! The seeded parallel fan-out behind every portfolio evaluation.
//!
//! [`run_chunked_pooled`] executes `n` independent jobs on at most
//! `max_threads` workers, the calling thread and scoped threads (each
//! worker claims the next unclaimed job index, results are gathered by
//! job index), so callers never spawn one thread per job, no worker
//! idles while jobs remain, and the output is the same under any
//! thread cap. Each worker draws a warm scratch value from a
//! [`ScratchPool`] and returns it when it finishes, so a caller that
//! fans out repeatedly (the adversarial search prices every candidate
//! instance against the whole portfolio) reuses the same few scratches
//! across all its fan-outs. A fan-out that needs only one worker
//! spawns no thread. It has two callers, both in `anneal-arena`: the
//! cell loop, through which tournaments, campaign shards and the
//! adversary's ratio evaluations all go, one job per instance column;
//! and a campaign shard's instance generation, one job per column,
//! ahead of the shard's cells (its scratch is `()`).

use std::sync::atomic::{AtomicUsize, Ordering};

/// The default thread cap: the machine's available parallelism (1 when
/// it cannot be determined).
pub fn default_max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A shared pool of scratch values for *repeated* fan-outs.
///
/// Workers die with each [`run_chunked_pooled`] call, but the scratch
/// they warmed need not: a caller that fans out thousands of times
/// keeps one pool alive between calls. Workers take a value at start
/// ([`ScratchPool::take`] falls back to `Default` when the pool is dry)
/// and return it when done, so across an entire search only about
/// `max_threads` scratches are ever created.
#[derive(Debug)]
pub struct ScratchPool<S> {
    pool: std::sync::Mutex<PoolInner<S>>,
}

#[derive(Debug)]
struct PoolInner<S> {
    items: Vec<S>,
    stats: PoolStats,
}

/// Hit/miss statistics of a [`ScratchPool`].
///
/// A *hit* reuses a warmed scratch; a *miss* builds a fresh default
/// one. The split between them depends on how many workers raced for
/// the pool, so these are [`Scheduling`](anneal_obs::MetricClass::Scheduling)-class
/// metrics (`sched.pool.*`): excluded from cross-`--threads`
/// invariance checks. (Route-table rebuilds are counted separately,
/// inside each scratch — see `anneal_sim::RouteCacheStats` — because a
/// pool miss costs one warm-up while a route rebuild recurs per
/// topology switch.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes served from the pool (warm scratch reused).
    pub hits: u64,
    /// Takes that fell back to `Default` (cold scratch built).
    pub misses: u64,
}

impl PoolStats {
    /// Accumulates these statistics into `r` (`sched.pool.*` counters).
    pub fn record_into(&self, r: &mut dyn anneal_obs::Recorder) {
        r.add("sched.pool.hits", self.hits);
        r.add("sched.pool.misses", self.misses);
    }
}

impl<S> Default for ScratchPool<S> {
    fn default() -> Self {
        ScratchPool {
            pool: std::sync::Mutex::new(PoolInner {
                items: Vec::new(),
                stats: PoolStats::default(),
            }),
        }
    }
}

impl<S: Default> ScratchPool<S> {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a pooled (warm) scratch, or a fresh default one.
    #[expect(
        clippy::expect_used,
        reason = "pool users do not panic while holding the lock"
    )]
    pub fn take(&self) -> S {
        let mut inner = self.pool.lock().expect("scratch pool poisoned");
        match inner.items.pop() {
            Some(s) => {
                inner.stats.hits += 1;
                s
            }
            None => {
                inner.stats.misses += 1;
                drop(inner);
                S::default()
            }
        }
    }

    /// Returns a scratch to the pool for the next fan-out.
    #[expect(
        clippy::expect_used,
        reason = "pool users do not panic while holding the lock"
    )]
    pub fn put(&self, s: S) {
        self.pool
            .lock()
            .expect("scratch pool poisoned")
            .items
            .push(s);
    }

    /// Number of pooled scratches (diagnostics).
    #[expect(
        clippy::expect_used,
        reason = "pool users do not panic while holding the lock"
    )]
    pub fn len(&self) -> usize {
        self.pool.lock().expect("scratch pool poisoned").items.len()
    }

    /// `true` when no scratch is pooled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss statistics accumulated since construction.
    #[expect(
        clippy::expect_used,
        reason = "pool users do not panic while holding the lock"
    )]
    pub fn stats(&self) -> PoolStats {
        self.pool.lock().expect("scratch pool poisoned").stats
    }
}

/// Runs `jobs` independent jobs on at most `max_threads` workers (`0`
/// means [`default_max_threads`]) and returns the results in job order.
/// The calling thread is one of the workers and the others are scoped
/// threads, so a fan-out that needs only one worker (one job, or
/// `max_threads == 1`) spawns nothing. Jobs are claimed: each worker
/// takes the lowest job index no worker has taken yet, so a worker
/// stuck on a long job never holds up jobs another worker could run,
/// and jobs start in index order (a single worker runs them strictly in
/// order). Callers put their costliest jobs first. Which worker runs a
/// job depends on timing, so a job's result must depend only on its
/// index.
///
/// Each worker takes one scratch from `pool` on its own thread, threads
/// it through every job it handles, and puts it back when done. Results
/// must not depend on the scratch state (scratch is an optimization,
/// never an input), so the output stays reproducible under any thread
/// cap.
#[expect(
    clippy::expect_used,
    reason = "worker panics are propagated; the claim counter hands out every job index once"
)]
pub fn run_chunked_pooled<T, S, F>(
    jobs: usize,
    max_threads: usize,
    pool: &ScratchPool<S>,
    f: F,
) -> Vec<T>
where
    T: Send,
    S: Default + Send,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    let threads = if max_threads == 0 {
        default_max_threads()
    } else {
        max_threads
    }
    .min(jobs);
    let f = &f;
    // The counter only hands out indices; results travel back through
    // `join`, which synchronizes on its own, so `Relaxed` is enough.
    let next = &AtomicUsize::new(0);
    let work = move || {
        let mut scratch = pool.take();
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                break;
            }
            out.push((i, f(&mut scratch, i)));
        }
        pool.put(scratch);
        out
    };
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(jobs).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        for (i, v) in work() {
            slots[i] = Some(v);
        }
        for h in handles {
            for (i, v) in h.join().expect("worker thread panicked") {
                slots[i] = Some(v);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every job index is covered by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_chunked_orders_and_covers() {
        let pool: ScratchPool<()> = ScratchPool::new();
        for cap in [0, 1, 2, 7, 64] {
            let out = run_chunked_pooled(13, cap, &pool, |(), i| i * i);
            assert_eq!(out, (0..13).map(|i| i * i).collect::<Vec<_>>(), "cap {cap}");
        }
        assert!(run_chunked_pooled(0, 3, &pool, |(), i| i).is_empty());
        assert!(default_max_threads() >= 1);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test checks which thread ran the jobs"
    )]
    fn one_worker_fanouts_run_on_the_caller() {
        let pool: ScratchPool<()> = ScratchPool::new();
        let caller = std::thread::current().id();
        let on_caller = |(): &mut (), _| std::thread::current().id() == caller;
        assert_eq!(run_chunked_pooled(1, 4, &pool, on_caller), [true]);
        assert_eq!(run_chunked_pooled(5, 1, &pool, on_caller), [true; 5]);
        // the inline worker draws and returns its scratch like any other
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn pooled_scratch_threads_through_a_workers_jobs() {
        // With one worker, the scratch threads through every job in
        // order, and the next fan-out picks the warm value back up.
        let pool: ScratchPool<usize> = ScratchPool::new();
        let count = |seen: &mut usize, i| {
            *seen += 1;
            (i, *seen)
        };
        let out = run_chunked_pooled(6, 1, &pool, count);
        assert_eq!(out, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]);
        let out = run_chunked_pooled(2, 1, &pool, count);
        assert_eq!(out, vec![(0, 7), (1, 8)]);
        // results stay in job order regardless of cap
        for cap in [0, 2, 5] {
            let out = run_chunked_pooled(9, cap, &pool, |_, i| i * 3);
            assert_eq!(out, (0..9).map(|i| i * 3).collect::<Vec<_>>(), "cap {cap}");
        }
        assert!(run_chunked_pooled(0, 2, &pool, |_, i| i).is_empty());
    }

    #[test]
    fn idle_workers_claim_jobs_a_blocked_worker_has_not_reached() {
        // Job 0 waits for job 2. A fixed stride would hand job 2 to job
        // 0's worker, which is blocked, so the wait would time out;
        // claiming lets the other worker run jobs 1 to 3.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        // `Receiver` is not `Sync`; only job 0 ever locks it.
        let rx = std::sync::Mutex::new(rx);
        let pool: ScratchPool<()> = ScratchPool::new();
        let out = run_chunked_pooled(4, 2, &pool, |(), i| match i {
            0 => rx
                .lock()
                .expect("receiver lock")
                .recv_timeout(std::time::Duration::from_secs(10))
                .is_ok(),
            2 => tx.send(()).is_ok(),
            _ => true,
        });
        assert_eq!(out, [true; 4], "job 0 must receive job 2's message");
    }

    #[test]
    fn scratch_pool_recycles_across_fanouts() {
        let pool: ScratchPool<Vec<u64>> = ScratchPool::new();
        assert!(pool.is_empty());
        for round in 0..3 {
            let out = run_chunked_pooled(8, 2, &pool, |scratch, i| {
                scratch.push(i as u64);
                i * 2
            });
            assert_eq!(
                out,
                (0..8).map(|i| i * 2).collect::<Vec<_>>(),
                "round {round}"
            );
            // every worker returned its scratch (a fast worker's
            // scratch may have been re-taken by a slower one, so the
            // count is 1..=2, never 0 and never growing per round)
            let len = pool.len();
            assert!((1..=2).contains(&len), "round {round}: {len}");
        }
        // every job of every round landed in a scratch that is back in
        // the pool: the pooled scratches hold all 24 pushes.
        let mut total = 0;
        while !pool.is_empty() {
            total += pool.take().len();
        }
        assert_eq!(total, 24);
        // every take was counted: 3 fan-outs plus the drain above
        let stats = pool.stats();
        assert!(stats.hits >= 1, "at least one warm reuse across rounds");
        assert!(stats.misses >= 1, "the first take is always cold");
        let mut reg = anneal_obs::MetricsRegistry::new();
        stats.record_into(&mut reg);
        assert_eq!(reg.counter("sched.pool.hits"), stats.hits);
        assert_eq!(reg.counter("sched.pool.misses"), stats.misses);
        use anneal_obs::MetricClass;
        assert_eq!(
            anneal_obs::class_of("sched.pool.hits"),
            MetricClass::Scheduling
        );
    }
}
