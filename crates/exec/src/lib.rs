//! Deterministic parallel execution primitives for the BotMeter pipeline.
//!
//! Every parallel stage in the workspace — shard production (bot replay)
//! in `botmeter-sim`, per-epoch pool generation and chunked matching in
//! `botmeter-matcher`, pool generation and per-server estimation in
//! `botmeter-core`, the journal write beside the engine's fold and the
//! frame decode ahead of replay in `botmeter-daemon`, trial sweeps in
//! `botmeter-bench` — funnels through this crate. (The pipeline's
//! TTL-cache filter is deliberately not among them: it runs on the
//! pipeline's consumer, one shard at a time — DESIGN.md §8.) So the
//! threading policy lives in one place:
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
//! * **Determinism by index.** Workers hand back each job's result with its
//!   index, so outputs are returned in job order no matter which thread ran
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
#![warn(unreachable_pub)]

use botmeter_obs::Obs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
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
/// worker took beyond its even share) and `sched.exec.queue_high_water`
/// (the deepest dispatch queue any single batch presented).
///
/// # Panics
///
/// If a job panics, with that job's own payload. Under a parallel policy
/// the other workers keep draining the batch, and the panic resurfaces only
/// once every worker has been joined, so the next batch on the same policy
/// starts from a clean pool.
pub fn run_indexed_with<T, F>(policy: ExecPolicy, obs: &Obs, jobs: usize, f: F) -> Vec<T>
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
    if workers <= 1 {
        return (0..jobs).map(f).collect();
    }
    // Bounded coordination state: one atomic dispenser. Each worker returns
    // the `(index, value)` pairs it took.
    let next_job = AtomicUsize::new(0);
    let joined: Vec<thread::Result<Vec<(usize, T)>>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut run = Vec::new();
                    loop {
                        let i = next_job.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            return run;
                        }
                        run.push((i, f(i)));
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut slots: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
    // Anything beyond the even split is load the worker "stole" from
    // slower peers through the dispenser.
    let even_share = jobs / workers;
    let mut steals = 0;
    for run in joined {
        let run = run.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        steals += run.len().saturating_sub(even_share) as u64;
        for (i, value) in run {
            slots[i] = Some(value);
        }
    }
    obs.counter_add("sched.exec.steals", steals);
    slots
        .into_iter()
        .map(|slot| slot.expect("every job completed"))
        .collect()
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
pub(crate) fn chunk_bounds(len: usize, chunks: usize) -> Vec<(usize, usize)> {
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

/// Runs two independent closures under `policy` and returns both results.
///
/// Sequential policies (`Sequential`, `with_threads(1)`) run `a` and then
/// `b` inline on the calling thread: the reference order. Any other policy
/// runs `a` on one scoped worker while `b` runs on the caller, so only `a`
/// and its result must be `Send`; `b` may borrow state that never leaves
/// the calling thread. The call returns once both have finished.
///
/// Metrics (scheduling-dependent, `sched.` prefix): `sched.join.forks`
/// counts calls that ran `a` on a worker.
///
/// # Panics
///
/// If either closure panics, with its own payload, once both have
/// finished (a panic in `a` first, as the sequential order would raise
/// it). Under a sequential policy a panic in `a` means `b` never runs.
pub fn join_with<A, B, RA, RB>(policy: ExecPolicy, obs: &Obs, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    RA: Send,
    B: FnOnce() -> RB,
{
    if policy.is_sequential() {
        let ra = a();
        return (ra, b());
    }
    obs.counter_add("sched.join.forks", 1);
    let (ra, rb) = thread::scope(|scope| {
        let worker = scope.spawn(a);
        let rb = catch_unwind(AssertUnwindSafe(b));
        (worker.join(), rb)
    });
    match (ra, rb) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(payload), _) | (_, Err(payload)) => std::panic::resume_unwind(payload),
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
    fn join_sequential_runs_a_then_b_on_the_caller() {
        let caller = thread::current().id();
        let order = Mutex::new(Vec::new());
        let (a, b) = join_with(
            ExecPolicy::Sequential,
            &Obs::noop(),
            || {
                order.lock().unwrap().push(("a", thread::current().id()));
                1
            },
            || {
                order.lock().unwrap().push(("b", thread::current().id()));
                2
            },
        );
        assert_eq!((a, b), (1, 2));
        assert_eq!(order.into_inner().unwrap(), [("a", caller), ("b", caller)]);
    }

    #[test]
    fn join_with_one_thread_is_sequential() {
        let caller = thread::current().id();
        let (obs, registry) = Obs::collecting();
        let (a, b) = join_with(
            ExecPolicy::with_threads(1),
            &obs,
            || thread::current().id(),
            || thread::current().id(),
        );
        assert_eq!((a, b), (caller, caller));
        assert_eq!(registry.snapshot().counter("sched.join.forks"), None);
    }

    #[test]
    fn join_parallel_runs_a_off_the_caller_and_returns_both() {
        let caller = thread::current().id();
        let (obs, registry) = Obs::collecting();
        let mut carried = vec![1, 2];
        let ((a_thread, a_sum), b_thread) = join_with(
            ExecPolicy::with_threads(2),
            &obs,
            || (thread::current().id(), (0..100u64).sum::<u64>()),
            || {
                // `b` may mutate state borrowed from the caller.
                carried.push(3);
                thread::current().id()
            },
        );
        assert_ne!(a_thread, caller);
        assert_eq!(b_thread, caller);
        assert_eq!(a_sum, 4950);
        assert_eq!(carried, [1, 2, 3]);
        assert_eq!(registry.snapshot().counter("sched.join.forks"), Some(1));
    }

    #[test]
    fn join_panic_in_either_side_resurfaces_after_both_finish() {
        with_silent_panics(|| {
            let b_ran = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                join_with(
                    ExecPolicy::with_threads(2),
                    &Obs::noop(),
                    || -> usize { panic!("a died") },
                    || b_ran.fetch_add(1, Ordering::SeqCst),
                )
            }));
            let payload = caught.expect_err("a's panic must resurface");
            assert_eq!(payload.downcast_ref::<&'static str>(), Some(&"a died"));
            assert_eq!(b_ran.load(Ordering::SeqCst), 1, "b ran to completion");

            // `a` finishes only once `b` is unwinding: `b`'s guard signals
            // from its drop.
            struct SignalOnDrop(std::sync::mpsc::Sender<()>);
            impl Drop for SignalOnDrop {
                fn drop(&mut self) {
                    let _ = self.0.send(());
                }
            }
            let a_ran = AtomicUsize::new(0);
            let (unwinding, wait_for_b) = std::sync::mpsc::channel();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                let a_ran = &a_ran;
                join_with(
                    ExecPolicy::with_threads(2),
                    &Obs::noop(),
                    move || {
                        wait_for_b.recv().expect("b's guard signals");
                        a_ran.fetch_add(1, Ordering::SeqCst)
                    },
                    || -> usize {
                        let _signal = SignalOnDrop(unwinding);
                        panic!("b died")
                    },
                )
            }));
            let payload = caught.expect_err("b's panic must resurface");
            assert_eq!(payload.downcast_ref::<&'static str>(), Some(&"b died"));
            assert_eq!(a_ran.load(Ordering::SeqCst), 1, "a was joined first");

            // Sequential: a's panic stops the call before b starts.
            let b_ran = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                join_with(
                    ExecPolicy::Sequential,
                    &Obs::noop(),
                    || -> usize { panic!("a died") },
                    || b_ran.fetch_add(1, Ordering::SeqCst),
                )
            }));
            assert!(caught.is_err());
            assert_eq!(b_ran.load(Ordering::SeqCst), 0);
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
}
