//! Deterministic parallel execution primitives for the BotMeter pipeline.
//!
//! Every parallel stage in the workspace — shard production (bot replay)
//! in `botmeter-sim`, per-epoch pool generation and chunked matching in
//! `botmeter-matcher`, pool generation and per-server estimation in
//! `botmeter-core`, trial sweeps in `botmeter-bench` —
//! funnels through this crate. (The pipeline's TTL-cache filter is
//! deliberately not among them: it runs on the pipeline's consumer, one
//! shard at a time — DESIGN.md §8.) So the threading policy lives in one
//! place:
//!
//! * **One execution policy.** Pipeline entry points take an
//!   [`ExecPolicy`] (`Sequential` or `Parallel { threads }`); there are no
//!   `*_parallel` twins. [`ExecPolicy::default`] resolves the worker count
//!   from the `BOTMETER_THREADS` environment variable (see
//!   [`num_threads`]).
//! * **Self-scheduling, bounded dispatch.** Jobs are handed out through a
//!   single atomic counter (a "job dispenser"), not a pre-filled queue:
//!   memory for in-flight coordination is `O(workers)`, and an idle worker
//!   steals the next index the moment it finishes — the same load-balancing
//!   effect as a work-stealing deque for the independent-jobs shapes BotMeter
//!   has, with none of the queue allocation.
//! * **Determinism by index.** Workers write each job's result into its own
//!   slot, so outputs are returned in job order no matter which thread ran
//!   what. Callers keep the contract that job `i` is a pure function of `i`.
//! * **Observability.** Every entry point takes a [`botmeter_obs::Obs`]
//!   handle and reports batch/task/steal counts and a queue-depth
//!   high-water mark under the scheduling-dependent `sched.` prefix (see
//!   `botmeter-obs` for why those counters are exempt from the
//!   sequential-vs-parallel determinism contract).
//!
//! ```
//! use botmeter_exec::ExecPolicy;
//! let (obs, registry) = botmeter_obs::Obs::collecting();
//! let squares = botmeter_exec::run_indexed_with(ExecPolicy::default(), &obs, 8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! assert_eq!(registry.snapshot().counter("sched.exec.tasks"), Some(8));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use botmeter_obs::Obs;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::thread;

/// How a pipeline stage should execute: single-threaded, or fanned out
/// across a worker pool.
///
/// Every pipeline entry point (`ScenarioSpec::run`, `match_stream`,
/// `BotMeter::chart_with`) takes one of these. Both variants produce
/// bit-identical pipeline results — the policy only chooses how the work
/// is scheduled.
///
/// # Example
///
/// ```
/// use botmeter_exec::ExecPolicy;
/// assert_eq!(ExecPolicy::Sequential.worker_threads(), 1);
/// assert_eq!(ExecPolicy::with_threads(4).worker_threads(), 4);
/// // The default resolves from BOTMETER_THREADS / available parallelism:
/// assert!(ExecPolicy::default().worker_threads() >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecPolicy {
    /// Run everything inline on the calling thread. This is also the
    /// reference behaviour the determinism tests compare against.
    Sequential,
    /// Fan out across worker threads. `threads: None` resolves the count
    /// at call time via [`num_threads`] (the `BOTMETER_THREADS`
    /// environment variable, falling back to the machine's available
    /// parallelism).
    Parallel {
        /// Explicit worker count; `None` means auto-detect.
        threads: Option<usize>,
    },
}

impl Default for ExecPolicy {
    /// Parallel with auto-detected worker count.
    fn default() -> Self {
        ExecPolicy::parallel()
    }
}

impl ExecPolicy {
    /// Parallel execution with the worker count resolved at call time.
    pub fn parallel() -> Self {
        ExecPolicy::Parallel { threads: None }
    }

    /// Parallel execution pinned to `threads` workers (clamped to ≥ 1;
    /// `1` behaves exactly like [`ExecPolicy::Sequential`]).
    pub fn with_threads(threads: usize) -> Self {
        ExecPolicy::Parallel {
            threads: Some(threads.max(1)),
        }
    }

    /// The number of worker threads this policy resolves to right now.
    pub fn worker_threads(self) -> usize {
        match self {
            ExecPolicy::Sequential => 1,
            ExecPolicy::Parallel { threads: Some(n) } => n.max(1),
            ExecPolicy::Parallel { threads: None } => num_threads(),
        }
    }

    /// Whether the policy resolves to inline, single-threaded execution.
    pub fn is_sequential(self) -> bool {
        self.worker_threads() <= 1
    }
}

/// The number of worker threads parallel stages use by default.
///
/// Set `BOTMETER_THREADS` to pin it (values below 1 are clamped to 1);
/// otherwise it is the machine's available parallelism.
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("BOTMETER_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A structured record of one job's panic, produced by
/// [`try_run_indexed_with`]: the batch keeps running, the pool stays
/// usable, and the panicking job surfaces as this error instead of
/// aborting the whole scope.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct TaskPanic {
    /// The index of the job that panicked.
    pub index: usize,
    /// The panic payload, when it was a string (the overwhelmingly common
    /// case); a placeholder otherwise.
    pub message: String,
}

impl fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// Runs job `i` with per-task panic isolation.
fn catch_job<T, F: Fn(usize) -> T>(f: &F, i: usize) -> Result<T, TaskPanic> {
    catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_owned()
        };
        TaskPanic { index: i, message }
    })
}

/// Runs `jobs` independent jobs of `f` (given the job index) under
/// `policy` and returns the results in index order.
///
/// Jobs must be deterministic functions of their index; scheduling order is
/// unobservable in the output. With one worker (or one job) everything runs
/// inline on the calling thread, which is also the sequential reference
/// behaviour the determinism tests compare against.
///
/// Scheduling metrics reported through `obs` (all under the `sched.`
/// prefix, so they are exempt from the determinism contract):
/// `sched.exec.batches`, `sched.exec.tasks`, `sched.exec.steals` (jobs a
/// worker took beyond its even share), `sched.exec.queue_high_water`
/// (the deepest dispatch queue any single batch presented) and
/// `sched.exec.panics` (jobs that panicked — see [`try_run_indexed_with`]).
///
/// # Panics
///
/// If any job panics. Unlike a bare `thread::scope`, the panic is
/// *contained* per task ([`try_run_indexed_with`] is the non-panicking
/// form): every other job still runs to completion and the pool winds down
/// cleanly before the first panicking job's error is re-raised here.
pub fn run_indexed_with<T, F>(policy: ExecPolicy, obs: &Obs, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out = Vec::with_capacity(jobs);
    for result in try_run_indexed_with(policy, obs, jobs, f) {
        match result {
            Ok(value) => out.push(value),
            Err(panic) => panic!("{panic}"),
        }
    }
    out
}

/// [`run_indexed_with`] with per-task panic isolation: every job runs under
/// `catch_unwind`, so a panicking job yields `Err(TaskPanic)` in its slot
/// while the rest of the batch completes normally — no hang, no abort, and
/// the calling thread (and any surrounding pool) stays usable.
///
/// Results come back in job index order, one `Result` per job. Panic counts
/// are reported through `obs` as `sched.exec.panics`.
pub fn try_run_indexed_with<T, F>(
    policy: ExecPolicy,
    obs: &Obs,
    jobs: usize,
    f: F,
) -> Vec<Result<T, TaskPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    let workers = policy.worker_threads().min(jobs);
    obs.counter_add("sched.exec.batches", 1);
    obs.counter_add("sched.exec.tasks", jobs as u64);
    obs.gauge_max("sched.exec.queue_high_water", jobs as u64);
    let results: Vec<Result<T, TaskPanic>> = if workers <= 1 {
        (0..jobs).map(|i| catch_job(&f, i)).collect()
    } else {
        // Bounded coordination state: one atomic dispenser + one slot per
        // job. No job queue is materialised at all.
        let next_job = AtomicUsize::new(0);
        let steals = AtomicU64::new(0);
        let even_share = jobs / workers;
        let slots: Vec<Mutex<Option<Result<T, TaskPanic>>>> =
            (0..jobs).map(|_| Mutex::new(None)).collect();
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut taken = 0u64;
                    loop {
                        let i = next_job.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            break;
                        }
                        taken += 1;
                        let value = catch_job(&f, i);
                        // catch_unwind already fenced the job, so the lock
                        // cannot be poisoned by `f`; recover defensively
                        // anyway instead of cascading a second panic.
                        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
                    }
                    // Anything beyond the even split is load the worker
                    // "stole" from slower peers through the dispenser.
                    let stolen = taken.saturating_sub(even_share as u64);
                    if stolen > 0 {
                        steals.fetch_add(stolen, Ordering::Relaxed);
                    }
                });
            }
        });
        obs.counter_add("sched.exec.steals", steals.into_inner());
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("every job completed")
            })
            .collect()
    };
    let panics = results.iter().filter(|r| r.is_err()).count();
    if panics > 0 {
        obs.counter_add("sched.exec.panics", panics as u64);
    }
    results
}

/// Splits `items` into at most [`ExecPolicy::worker_threads`] contiguous
/// chunks of near-equal length and maps `f` over them under `policy`,
/// returning one result per chunk in chunk order. Empty input yields no
/// chunks.
///
/// `f` receives `(chunk_index, chunk_slice)`.
pub fn map_chunks_with<T, R, F>(policy: ExecPolicy, obs: &Obs, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let bounds = chunk_bounds(items.len(), policy.worker_threads());
    run_indexed_with(policy, obs, bounds.len(), |i| {
        let (start, end) = bounds[i];
        f(i, &items[start..end])
    })
}

/// Computes `chunks` near-equal `(start, end)` ranges covering `0..len`
/// (fewer when `len < chunks`; none when `len == 0`).
pub fn chunk_bounds(len: usize, chunks: usize) -> Vec<(usize, usize)> {
    if len == 0 || chunks == 0 {
        return Vec::new();
    }
    let chunks = chunks.min(len);
    let base = len / chunks;
    let extra = len % chunks;
    let mut bounds = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        bounds.push((start, start + size));
        start += size;
    }
    bounds
}

/// How many items beyond the consumer's cursor the multi-producer runner
/// ([`run_pipelined_with`]) may claim at once. Fixed (not derived from the
/// worker count) so anything accounted against the window — the streaming
/// pipeline's deterministic residency bound — is identical under every
/// [`ExecPolicy`]. Worker counts above this see no extra producer
/// parallelism; today's pools (≤ 16 threads typical) fit inside it.
pub const PIPELINE_WINDOW: usize = 8;

/// Shared state of the multi-producer runner: claimed tickets, finished
/// items waiting for their turn, and the consumer's cursor.
struct PipeState<T> {
    /// Next item index a producer may claim.
    next_ticket: usize,
    /// Next item index the consumer will accept.
    next_consume: usize,
    /// Finished items that arrived ahead of the consumer, keyed by index.
    ready: std::collections::BTreeMap<usize, T>,
    /// Producer threads still running (normally or not).
    producers_alive: usize,
    /// The consumer died; producers should stop claiming tickets.
    aborted: bool,
    /// Ticket claims that had to wait for the window to advance.
    stalls: u64,
    /// Deepest the ready buffer ever got.
    high_water: u64,
}

struct PipeChannel<T> {
    state: Mutex<PipeState<T>>,
    /// Signalled when an item lands in `ready` or a producer exits.
    ready: Condvar,
    /// Signalled when the consumer advances (or aborts).
    advanced: Condvar,
}

/// Decrements the live-producer count (and wakes the consumer) when a
/// producer thread exits — *including* by panic. A panicking producer may
/// have claimed a ticket it will never deliver, which would strand the
/// consumer on `ready` and its peers on the full window, so the panic path
/// additionally aborts the whole pipeline and wakes both sides; the
/// payload then resurfaces when the scope joins the dead thread.
struct ProducerExitGuard<'a, T>(&'a PipeChannel<T>);

impl<T> Drop for ProducerExitGuard<'_, T> {
    fn drop(&mut self) {
        let mut s = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        s.producers_alive -= 1;
        if thread::panicking() {
            s.aborted = true;
        }
        drop(s);
        self.0.ready.notify_all();
        self.0.advanced.notify_all();
    }
}

/// Runs an indexed produce→consume pipeline with **multiple producer
/// workers**: up to [`ExecPolicy::worker_threads`] threads build items
/// concurrently while the calling thread consumes them **strictly in index
/// order**.
///
/// Item indices are handed to the pool of producers through a ticket
/// window — a producer may claim index
/// `i` only once `i < consumed + `[`PIPELINE_WINDOW`], so at most
/// `PIPELINE_WINDOW` items are in flight (being built or buffered) beyond
/// the consumer's cursor at any moment. The window is a fixed constant
/// rather than a function of the worker count, so any memory accounting a
/// caller derives from it is identical under every policy — the streaming
/// pipeline's deterministic residency bound depends on exactly that.
///
/// `produce` must be a pure function of the index (it runs concurrently on
/// several threads); `consume` runs only on the calling thread, so it may
/// freely mutate carried state — cache topologies, fault streams,
/// accumulators.
///
/// Sequential policies alternate the two closures inline, which is also the
/// reference behaviour the determinism suites compare against. Metrics
/// (scheduling-dependent, `sched.` prefix): `sched.stream.batches`,
/// `sched.stream.items`, `sched.stream.producer_workers` (threads the
/// parallel path actually spawned), `sched.stream.queue_high_water` and
/// `sched.stream.backpressure_stalls` (ticket claims that blocked on the
/// window).
///
/// # Panics
///
/// A panic in `produce` or `consume` tears the pipeline down cleanly (no
/// deadlock on the window) and resurfaces on the calling thread.
pub fn run_pipelined_with<T, P, C>(
    policy: ExecPolicy,
    obs: &Obs,
    jobs: usize,
    produce: P,
    mut consume: C,
) where
    T: Send,
    P: Fn(usize) -> T + Sync,
    C: FnMut(usize, T),
{
    obs.counter_add("sched.stream.batches", 1);
    obs.counter_add("sched.stream.items", jobs as u64);
    if jobs == 0 {
        return;
    }
    if policy.is_sequential() {
        for i in 0..jobs {
            let item = produce(i);
            consume(i, item);
        }
        return;
    }
    let workers = policy.worker_threads().min(jobs).min(PIPELINE_WINDOW);
    obs.gauge_max("sched.stream.producer_workers", workers as u64);
    let channel = PipeChannel {
        state: Mutex::new(PipeState {
            next_ticket: 0,
            next_consume: 0,
            ready: std::collections::BTreeMap::new(),
            producers_alive: workers,
            aborted: false,
            stalls: 0,
            high_water: 0,
        }),
        ready: Condvar::new(),
        advanced: Condvar::new(),
    };
    let consumer_outcome = thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _exit = ProducerExitGuard(&channel);
                loop {
                    // Claim the next ticket once it enters the window.
                    let i = {
                        let mut s = channel.state.lock().unwrap_or_else(PoisonError::into_inner);
                        let mut waited = false;
                        loop {
                            if s.aborted || s.next_ticket >= jobs {
                                return;
                            }
                            if s.next_ticket < s.next_consume + PIPELINE_WINDOW {
                                break;
                            }
                            if !waited {
                                s.stalls += 1;
                                waited = true;
                            }
                            s = channel
                                .advanced
                                .wait(s)
                                .unwrap_or_else(PoisonError::into_inner);
                        }
                        s.next_ticket += 1;
                        s.next_ticket - 1
                    };
                    // Build outside the lock so peers claim and the
                    // consumer drains freely.
                    let item = produce(i);
                    let mut s = channel.state.lock().unwrap_or_else(PoisonError::into_inner);
                    if s.aborted {
                        return;
                    }
                    s.ready.insert(i, item);
                    s.high_water = s.high_water.max(s.ready.len() as u64);
                    drop(s);
                    channel.ready.notify_all();
                }
            });
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| loop {
            let next = {
                let mut s = channel.state.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    if s.aborted {
                        // A producer panicked; its ticket will never be
                        // delivered. The payload resurfaces at scope join.
                        return;
                    }
                    if s.next_consume >= jobs {
                        return;
                    }
                    let turn = s.next_consume;
                    if let Some(item) = s.ready.remove(&turn) {
                        s.next_consume += 1;
                        break (turn, item);
                    }
                    if s.producers_alive == 0 {
                        // A producer died before building this item; the
                        // panic resurfaces when the scope joins.
                        return;
                    }
                    s = channel
                        .ready
                        .wait(s)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            channel.advanced.notify_all();
            consume(next.0, next.1);
        }));
        if outcome.is_err() {
            // Unblock producers stuck on the window so the scope can wind
            // down instead of deadlocking.
            let mut s = channel.state.lock().unwrap_or_else(PoisonError::into_inner);
            s.aborted = true;
            drop(s);
            channel.advanced.notify_all();
        }
        outcome
        // A producer panic propagates here when the scope joins it.
    });
    let s = channel
        .state
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    obs.counter_add("sched.stream.backpressure_stalls", s.stalls);
    obs.gauge_max("sched.stream.queue_high_water", s.high_water);
    if let Err(payload) = consumer_outcome {
        std::panic::resume_unwind(payload);
    }
}

/// A bounded freelist of reusable `Vec<T>` buffers.
///
/// The streaming pipeline's producers fill one buffer per shard and the
/// consumer hands each buffer back after draining it; with the pool sized
/// to the pipeline window, steady-state shard production reuses the same
/// few allocations for the whole run instead of allocating and freeing one
/// `Vec` per shard. Buffers keep their capacity across recycles (they are
/// cleared, not shrunk), so after warm-up `acquire` is a pop and `recycle`
/// a push.
///
/// All methods take `&self`; the freelist is behind a mutex and the
/// counters are relaxed atomics, so producers and the consumer share one
/// pool. Metrics (scheduling-dependent, `sched.` prefix, therefore exempt
/// from the determinism contract): `sched.pool.acquires`,
/// `sched.pool.fresh_allocs` (acquires the freelist could not serve),
/// `sched.pool.recycled`, `sched.pool.dropped` (recycles beyond the bound)
/// and the `sched.pool.high_water` gauge (most buffers ever outstanding at
/// once).
///
/// # Example
///
/// ```
/// use botmeter_exec::BufferPool;
/// let pool: BufferPool<u64> = BufferPool::new(4);
/// let mut buf = pool.acquire();
/// buf.extend([1, 2, 3]);
/// pool.recycle(buf);
/// let again = pool.acquire();
/// assert!(again.is_empty() && again.capacity() >= 3);
/// ```
#[derive(Debug)]
pub struct BufferPool<T> {
    free: Mutex<Vec<Vec<T>>>,
    max_pooled: usize,
    acquires: AtomicU64,
    fresh_allocs: AtomicU64,
    recycled: AtomicU64,
    dropped: AtomicU64,
    outstanding: AtomicU64,
    high_water: AtomicU64,
}

impl<T> BufferPool<T> {
    /// Creates a pool retaining at most `max_pooled` idle buffers
    /// (clamped to ≥ 1). Recycles beyond the bound drop the buffer, so the
    /// pool can never hoard more memory than its high-water working set.
    pub fn new(max_pooled: usize) -> Self {
        BufferPool {
            free: Mutex::new(Vec::with_capacity(max_pooled.max(1))),
            max_pooled: max_pooled.max(1),
            acquires: AtomicU64::new(0),
            fresh_allocs: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            outstanding: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
        }
    }

    /// Takes an empty buffer from the freelist, or allocates a fresh one
    /// when the pool is dry (counted as `sched.pool.fresh_allocs`).
    pub fn acquire(&self) -> Vec<T> {
        self.acquires.fetch_add(1, Ordering::Relaxed);
        let now = 1 + self.outstanding.fetch_add(1, Ordering::Relaxed);
        self.high_water.fetch_max(now, Ordering::Relaxed);
        let pooled = self
            .free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        pooled.unwrap_or_else(|| {
            self.fresh_allocs.fetch_add(1, Ordering::Relaxed);
            Vec::new()
        })
    }

    /// Clears `buf` (keeping its capacity) and returns it to the freelist;
    /// buffers beyond the retention bound are dropped instead.
    pub fn recycle(&self, mut buf: Vec<T>) {
        // Saturating: recycling a buffer that was never acquired from this
        // pool (e.g. seeded by the caller) must not underflow.
        let _ = self
            .outstanding
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                Some(n.saturating_sub(1))
            });
        buf.clear();
        let mut free = self.free.lock().unwrap_or_else(PoisonError::into_inner);
        if free.len() < self.max_pooled {
            free.push(buf);
            drop(free);
            self.recycled.fetch_add(1, Ordering::Relaxed);
        } else {
            drop(free);
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of idle buffers currently pooled.
    pub fn idle(&self) -> usize {
        self.free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// The most buffers ever outstanding (acquired, not yet recycled) at
    /// one moment.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Pushes the pool's lifetime counters through `obs` under the
    /// scheduling-dependent `sched.pool.` prefix.
    pub fn record_metrics(&self, obs: &Obs) {
        obs.counter_add("sched.pool.acquires", self.acquires.load(Ordering::Relaxed));
        obs.counter_add(
            "sched.pool.fresh_allocs",
            self.fresh_allocs.load(Ordering::Relaxed),
        );
        obs.counter_add("sched.pool.recycled", self.recycled.load(Ordering::Relaxed));
        obs.counter_add("sched.pool.dropped", self.dropped.load(Ordering::Relaxed));
        obs.gauge_max("sched.pool.high_water", self.high_water());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_ordered_and_complete() {
        let xs = run_indexed_with(ExecPolicy::default(), &Obs::noop(), 100, |i| i * i);
        assert_eq!(xs.len(), 100);
        for (i, &v) in xs.iter().enumerate() {
            assert_eq!(v, i * i);
        }
    }

    #[test]
    fn run_indexed_zero_jobs() {
        assert!(run_indexed_with(ExecPolicy::default(), &Obs::noop(), 0, |i| i).is_empty());
    }

    #[test]
    fn policy_resolution() {
        assert_eq!(ExecPolicy::Sequential.worker_threads(), 1);
        assert!(ExecPolicy::Sequential.is_sequential());
        assert_eq!(ExecPolicy::with_threads(0).worker_threads(), 1);
        assert_eq!(ExecPolicy::with_threads(6).worker_threads(), 6);
        assert!(!ExecPolicy::with_threads(6).is_sequential());
        assert!(ExecPolicy::parallel().worker_threads() >= 1);
    }

    #[test]
    fn sequential_policy_matches_parallel_results() {
        let seq = run_indexed_with(ExecPolicy::Sequential, &Obs::noop(), 64, |i| i * 3);
        let par = run_indexed_with(ExecPolicy::with_threads(4), &Obs::noop(), 64, |i| i * 3);
        assert_eq!(seq, par);
    }

    #[test]
    fn scheduling_metrics_are_reported() {
        let (obs, registry) = botmeter_obs::Obs::collecting();
        let out = run_indexed_with(ExecPolicy::with_threads(4), &obs, 32, |i| i);
        assert_eq!(out.len(), 32);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sched.exec.batches"), Some(1));
        assert_eq!(snap.counter("sched.exec.tasks"), Some(32));
        assert_eq!(snap.counter("sched.exec.queue_high_water"), Some(32));
        // Steal counts are scheduling-dependent; they exist but are
        // excluded from the deterministic set.
        assert!(snap
            .deterministic_counters()
            .iter()
            .all(|c| !c.name.starts_with("sched.")));
    }

    /// Runs `f` with the default panic hook silenced, so deliberately
    /// panicking jobs do not spray backtraces over the test output.
    fn with_silent_panics<R>(f: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn one_panicking_task_in_a_thousand_fails_alone() {
        with_silent_panics(|| {
            let (obs, registry) = botmeter_obs::Obs::collecting();
            let results = try_run_indexed_with(ExecPolicy::with_threads(4), &obs, 1000, |i| {
                if i == 357 {
                    panic!("boom at {i}");
                }
                i * 2
            });
            assert_eq!(results.len(), 1000, "no job may be lost");
            for (i, r) in results.iter().enumerate() {
                if i == 357 {
                    let e = r.as_ref().unwrap_err();
                    assert_eq!(e.index, 357);
                    assert!(e.message.contains("boom at 357"), "{e}");
                    assert!(e.to_string().contains("job 357 panicked"));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 2, "job {i} must complete");
                }
            }
            assert_eq!(registry.snapshot().counter("sched.exec.panics"), Some(1));
            // The pool stays usable: the very next batch runs clean.
            let again = run_indexed_with(ExecPolicy::with_threads(4), &obs, 64, |i| i + 1);
            assert_eq!(again.len(), 64);
            assert_eq!(again[63], 64);
        });
    }

    #[test]
    fn sequential_policy_isolates_panics_too() {
        with_silent_panics(|| {
            let results = try_run_indexed_with(ExecPolicy::Sequential, &Obs::noop(), 5, |i| {
                if i == 2 {
                    panic!("odd one out");
                }
                i
            });
            assert!(results[2].is_err());
            assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 4);
        });
    }

    #[test]
    fn run_indexed_repanics_after_batch_completes() {
        with_silent_panics(|| {
            let completed = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run_indexed_with(ExecPolicy::with_threads(4), &Obs::noop(), 32, |i| {
                    if i == 3 {
                        panic!("resurfaced");
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                    i
                })
            }));
            let err = caught.expect_err("panic must resurface");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("job 3 panicked"), "{msg}");
            assert!(msg.contains("resurfaced"), "{msg}");
            // Isolation means the remaining 31 jobs all ran to completion
            // before the panic was re-raised.
            assert_eq!(completed.load(Ordering::Relaxed), 31);
        });
    }

    #[test]
    fn non_string_panic_payloads_are_reported() {
        with_silent_panics(|| {
            let results = try_run_indexed_with(ExecPolicy::Sequential, &Obs::noop(), 1, |_| {
                std::panic::panic_any(42_u32);
            });
            let e = results[0].as_ref().unwrap_err();
            assert_eq!(e.message, "non-string panic payload");
        });
    }

    #[test]
    fn chunk_bounds_cover_everything() {
        for len in [0usize, 1, 2, 7, 100, 101] {
            for chunks in [1usize, 2, 3, 8, 200] {
                let bounds = chunk_bounds(len, chunks);
                let total: usize = bounds.iter().map(|(s, e)| e - s).sum();
                assert_eq!(total, len);
                let mut cursor = 0;
                for &(s, e) in &bounds {
                    assert_eq!(s, cursor);
                    assert!(e > s);
                    cursor = e;
                }
            }
        }
    }

    #[test]
    fn map_chunks_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let sums = map_chunks_with(
            ExecPolicy::with_threads(4),
            &Obs::noop(),
            &items,
            |_, chunk| chunk.iter().sum::<u64>(),
        );
        assert_eq!(sums.len(), 4);
        assert_eq!(sums.iter().sum::<u64>(), items.iter().sum::<u64>());
    }

    #[test]
    fn pipelined_runner_consumes_in_index_order_under_every_worker_count() {
        for workers in [1usize, 2, 4, 8, 16] {
            let mut seen = Vec::new();
            run_pipelined_with(
                ExecPolicy::with_threads(workers),
                &Obs::noop(),
                300,
                |i| i * 3,
                |i, item| seen.push((i, item)),
            );
            assert_eq!(seen.len(), 300, "{workers} workers");
            for (k, &(i, item)) in seen.iter().enumerate() {
                assert_eq!(i, k);
                assert_eq!(item, k * 3);
            }
        }
    }

    #[test]
    fn pipelined_runner_zero_jobs_is_inert() {
        run_pipelined_with(
            ExecPolicy::with_threads(4),
            &Obs::noop(),
            0,
            |i| i,
            |_, _| panic!("no items to consume"),
        );
    }

    #[test]
    fn pipelined_runner_bounds_the_window_and_reports_metrics() {
        let (obs, registry) = botmeter_obs::Obs::collecting();
        run_pipelined_with(
            ExecPolicy::with_threads(4),
            &obs,
            100,
            |i| vec![i; 8],
            |_, _| thread::sleep(std::time::Duration::from_micros(100)),
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sched.stream.batches"), Some(1));
        assert_eq!(snap.counter("sched.stream.items"), Some(100));
        assert_eq!(snap.counter("sched.stream.producer_workers"), Some(4));
        let high = snap.counter("sched.stream.queue_high_water").unwrap_or(0);
        assert!(
            high <= PIPELINE_WINDOW as u64,
            "window bound violated: {high}"
        );
        assert!(snap
            .deterministic_counters()
            .iter()
            .all(|c| !c.name.starts_with("sched.")));
    }

    #[test]
    fn pipelined_runner_producer_panic_resurfaces_without_deadlock() {
        with_silent_panics(|| {
            let consumed = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run_pipelined_with(
                    ExecPolicy::with_threads(3),
                    &Obs::noop(),
                    60,
                    |i| {
                        if i == 9 {
                            panic!("producer died");
                        }
                        i
                    },
                    |_, _| {
                        consumed.fetch_add(1, Ordering::Relaxed);
                    },
                );
            }));
            assert!(caught.is_err(), "producer panic must resurface");
            // Only a prefix strictly before the dead item was consumed.
            assert!(consumed.load(Ordering::Relaxed) <= 9);
        });
    }

    #[test]
    fn pipelined_runner_consumer_panic_resurfaces_without_deadlock() {
        with_silent_panics(|| {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run_pipelined_with(
                    ExecPolicy::with_threads(3),
                    &Obs::noop(),
                    500,
                    |i| i,
                    |i, _| {
                        if i == 5 {
                            panic!("consumer died");
                        }
                    },
                );
            }));
            let payload = caught.expect_err("consumer panic must resurface");
            let msg = payload
                .downcast_ref::<&'static str>()
                .copied()
                .unwrap_or("");
            assert_eq!(msg, "consumer died");
        });
    }

    #[test]
    fn pipelined_runner_consume_may_mutate_carried_state() {
        // The consumer closure runs only on the calling thread, so carried
        // state (like the streaming pipeline's topology and fault stream)
        // needs no synchronisation.
        let mut acc = 0usize;
        run_pipelined_with(
            ExecPolicy::with_threads(4),
            &Obs::noop(),
            64,
            |i| i,
            |_, item| acc += item,
        );
        assert_eq!(acc, (0..64).sum());
    }

    #[test]
    fn buffer_pool_recycles_capacity_and_bounds_retention() {
        let pool: BufferPool<u64> = BufferPool::new(2);
        let mut a = pool.acquire();
        let mut b = pool.acquire();
        let c = pool.acquire();
        assert_eq!(pool.high_water(), 3);
        a.extend(0..100);
        b.extend(0..50);
        let a_cap = a.capacity();
        pool.recycle(a);
        pool.recycle(b);
        pool.recycle(c); // beyond the bound: dropped
        assert_eq!(pool.idle(), 2);

        // LIFO: the most recently pooled comes back first, and capacity
        // survives the round trip.
        let back = pool.acquire();
        assert!(back.is_empty());
        let back2 = pool.acquire();
        assert!(back2.capacity() >= a_cap.min(100));
        // Dry pool allocates fresh.
        let fresh = pool.acquire();
        assert_eq!(fresh.capacity(), 0);
    }

    #[test]
    fn buffer_pool_metrics_live_under_the_sched_prefix() {
        let pool: BufferPool<u8> = BufferPool::new(1);
        let a = pool.acquire();
        let b = pool.acquire();
        pool.recycle(a);
        pool.recycle(b);
        let _ = pool.acquire();
        let (obs, registry) = botmeter_obs::Obs::collecting();
        pool.record_metrics(&obs);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sched.pool.acquires"), Some(3));
        assert_eq!(snap.counter("sched.pool.fresh_allocs"), Some(2));
        assert_eq!(snap.counter("sched.pool.recycled"), Some(1));
        assert_eq!(snap.counter("sched.pool.dropped"), Some(1));
        assert_eq!(snap.counter("sched.pool.high_water"), Some(2));
        // Everything the pool reports is scheduling-dependent and stays
        // out of the determinism contract.
        assert!(snap
            .deterministic_counters()
            .iter()
            .all(|c| !c.name.starts_with("sched.pool.")));
    }
}
