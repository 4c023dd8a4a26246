//! Deterministic parallel execution primitives for the BotMeter pipeline.
//!
//! Every parallel stage in the workspace — shard production (bot replay)
//! in `botmeter-sim`, per-epoch pool generation and chunked matching in
//! `botmeter-matcher`, pool generation and per-server estimation in
//! `botmeter-core`, the journal write beside the engine's fold and the
//! frame decode ahead of replay in `botmeter-daemon`, the trace reader's
//! block decode in `botmeter-dns`, trial sweeps in `botmeter-bench` —
//! funnels through this crate. (The pipeline's
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
use std::collections::{BTreeMap, VecDeque};
use std::ops::ControlFlow;
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
/// ([`run_pipelined_with`]) may pull from its source at once. Fixed (not
/// derived from the worker count) so anything accounted against the
/// window — the streaming pipeline's deterministic residency bound, the
/// trace reader's memory bound — is identical under every
/// [`ExecPolicy`]. Worker counts above this see no extra producer
/// parallelism; today's pools (≤ 16 threads typical) fit inside it.
pub const PIPELINE_WINDOW: usize = 8;

/// Shared state of the multi-producer runner: pulled items no producer has
/// claimed yet, finished items waiting for their turn, and whether the run
/// is over.
struct PipeState<I, T> {
    /// Items the caller pulled from the source, oldest first, with their
    /// indices.
    pending: VecDeque<(usize, I)>,
    /// The source is exhausted: once `pending` is empty, producers exit.
    drained: bool,
    /// Finished items that arrived ahead of the consumer, keyed by index.
    ready: BTreeMap<usize, T>,
    /// The run ends early — the consumer stopped it, or a producer or the
    /// caller panicked: producers claim nothing more.
    stopped: bool,
    /// Times a producer found nothing to claim before the source was
    /// drained (it waited on the window or on the source).
    stalls: u64,
    /// Deepest the ready buffer ever got.
    high_water: u64,
}

struct PipeChannel<I, T> {
    state: Mutex<PipeState<I, T>>,
    /// Signalled when an item lands in `ready` or the run stops.
    ready: Condvar,
    /// Signalled when an item lands in `pending`, the source is drained or
    /// the run stops.
    work: Condvar,
}

impl<I, T> PipeChannel<I, T> {
    /// The shared state, poisoned or not: no caller code runs under the
    /// lock, and every update under it leaves the state valid.
    fn lock(&self) -> std::sync::MutexGuard<'_, PipeState<I, T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Ends the run early: producers drop what they hold and exit.
    fn stop(&self) {
        self.lock().stopped = true;
        self.work.notify_all();
        self.ready.notify_all();
    }

    /// One producer worker's loop: takes the oldest pulled item, builds it
    /// outside the lock (so peers claim and the consumer drains freely)
    /// and files the result, until the source is drained or the run stops.
    fn produce_until_drained(&self, produce: &impl Fn(I) -> T) {
        loop {
            let (i, item) = {
                let mut s = self.lock();
                let mut waited = false;
                loop {
                    if s.stopped {
                        return;
                    }
                    if let Some(next) = s.pending.pop_front() {
                        break next;
                    }
                    if s.drained {
                        return;
                    }
                    if !waited {
                        s.stalls += 1;
                        waited = true;
                    }
                    s = self.work.wait(s).unwrap_or_else(PoisonError::into_inner);
                }
            };
            let built = produce(item);
            let mut s = self.lock();
            if s.stopped {
                return;
            }
            s.ready.insert(i, built);
            s.high_water = s.high_water.max(s.ready.len() as u64);
            drop(s);
            self.ready.notify_all();
        }
    }
}

/// Stops the run when its producer unwinds: the item the producer took
/// will never be delivered, and the caller would wait for it forever. The
/// payload resurfaces when the producer is joined.
struct StopOnPanic<'a, I, T>(&'a PipeChannel<I, T>);

impl<I, T> Drop for StopOnPanic<'_, I, T> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.stop();
        }
    }
}

/// Runs a produce→consume pipeline over the items of `source` with
/// **multiple producer workers**: up to [`ExecPolicy::worker_threads`]
/// threads run `produce` on items concurrently while the calling thread
/// pulls items from `source` and consumes the results **strictly in source
/// order**, passing each one's 0-based index.
///
/// Only the calling thread touches `source`, so it need not be `Send` (a
/// locked stdin is fine); only its items travel to the workers. It pulls
/// item `i` only once `i < consumed + `[`PIPELINE_WINDOW`], counting the
/// item being consumed as consumed, so at most `PIPELINE_WINDOW` items are
/// in flight (queued, being built or buffered) beyond the one in the
/// consumer's hands. The window is a fixed constant rather than a function
/// of the worker count, so any memory accounting a caller derives from it
/// is identical under every policy — the streaming pipeline's
/// deterministic residency bound depends on exactly that.
///
/// `produce` must be a pure function of its item (it runs concurrently on
/// several threads); `consume` runs only on the calling thread, so it may
/// freely mutate carried state — cache topologies, fault streams,
/// accumulators. When `consume` returns [`ControlFlow::Break`] the run
/// stops: nothing more is consumed, producers drop what they hold, and the
/// source has been pulled at most `PIPELINE_WINDOW` items past the one
/// that stopped it.
///
/// Sequential policies (and sources of at most one item) alternate the
/// closures inline — pull, produce, consume — which is also the reference
/// behaviour the determinism suites compare against. Metrics
/// (scheduling-dependent, `sched.` prefix): `sched.stream.batches`,
/// `sched.stream.items` (items pulled), `sched.stream.producer_workers`
/// (threads the parallel path actually spawned),
/// `sched.stream.queue_high_water` and `sched.stream.backpressure_stalls`
/// (times a producer waited for the window or the source).
///
/// # Panics
///
/// A panic in `source`, `produce` or `consume` tears the pipeline down
/// cleanly (no deadlock on the window) and resurfaces on the calling
/// thread.
pub fn run_pipelined_with<S, T, P, C>(
    policy: ExecPolicy,
    obs: &Obs,
    source: S,
    produce: P,
    mut consume: C,
) where
    S: IntoIterator,
    S::Item: Send,
    T: Send,
    P: Fn(S::Item) -> T + Sync,
    C: FnMut(usize, T) -> ControlFlow<()>,
{
    obs.counter_add("sched.stream.batches", 1);
    let mut source = source.into_iter().fuse();
    let most = source.size_hint().1.unwrap_or(usize::MAX);
    let workers = policy.worker_threads().min(most).min(PIPELINE_WINDOW);
    if workers <= 1 {
        let mut pulled = 0;
        for (i, item) in source.by_ref().enumerate() {
            pulled = i + 1;
            if consume(i, produce(item)).is_break() {
                break;
            }
        }
        obs.counter_add("sched.stream.items", pulled as u64);
        return;
    }
    obs.gauge_max("sched.stream.producer_workers", workers as u64);
    let channel = PipeChannel {
        state: Mutex::new(PipeState {
            pending: VecDeque::new(),
            drained: false,
            ready: BTreeMap::new(),
            stopped: false,
            stalls: 0,
            high_water: 0,
        }),
        ready: Condvar::new(),
        work: Condvar::new(),
    };
    let mut pulled = 0;
    let outcome = thread::scope(|scope| {
        let producers: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let _stop = StopOnPanic(&channel);
                    channel.produce_until_drained(&produce);
                })
            })
            .collect();
        // Pulls items until the window is full or the source runs dry, off
        // the lock: the source may block on I/O.
        let mut refill = |consumed: usize| {
            let mut drained = false;
            while pulled < consumed + PIPELINE_WINDOW {
                let Some(item) = source.next() else {
                    drained = true;
                    break;
                };
                channel.lock().pending.push_back((pulled, item));
                channel.work.notify_one();
                pulled += 1;
            }
            if drained {
                channel.lock().drained = true;
                channel.work.notify_all();
            }
            pulled
        };
        let caller = catch_unwind(AssertUnwindSafe(|| {
            let mut consumed = 0;
            let mut last = refill(0);
            while consumed < last {
                let item = {
                    let mut s = channel.lock();
                    loop {
                        if let Some(item) = s.ready.remove(&consumed) {
                            break item;
                        }
                        if s.stopped {
                            // A producer panicked.
                            return;
                        }
                        s = channel
                            .ready
                            .wait(s)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                };
                consumed += 1;
                last = refill(consumed);
                if consume(consumed - 1, item).is_break() {
                    return;
                }
            }
        }));
        // However the caller left — done, stopped or unwinding — release
        // producers still waiting for work so the scope can wind down.
        channel.stop();
        // The caller's panic first, else the first producer's.
        let joined = producers.into_iter().map(|p| p.join());
        caller.and(joined.fold(Ok(()), Result::and))
    });
    let s = channel
        .state
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    obs.counter_add("sched.stream.items", pulled as u64);
    obs.counter_add("sched.stream.backpressure_stalls", s.stalls);
    obs.gauge_max("sched.stream.queue_high_water", s.high_water);
    if let Err(payload) = outcome {
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
    use std::cell::Cell;
    use std::rc::Rc;

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
        for workers in (1usize..=8).chain([16]) {
            let mut seen = Vec::new();
            run_pipelined_with(
                ExecPolicy::with_threads(workers),
                &Obs::noop(),
                0..300,
                |i| i * 3,
                |i, item| {
                    seen.push((i, item));
                    ControlFlow::Continue(())
                },
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
        for source in [0..0, 5..5] {
            run_pipelined_with(
                ExecPolicy::with_threads(4),
                &Obs::noop(),
                source,
                |i| i,
                |_, _| panic!("no items to consume"),
            );
        }
    }

    /// A source of `0..len` that counts its pulls and holds an `Rc`, so it
    /// is not `Send`: only the calling thread may touch it.
    fn counted_source(len: usize, pulls: &Rc<Cell<usize>>) -> impl Iterator<Item = usize> {
        let pulls = Rc::clone(pulls);
        std::iter::from_fn(move || {
            let i = pulls.get();
            (i < len).then(|| {
                pulls.set(i + 1);
                i
            })
        })
    }

    #[test]
    fn pipelined_runner_pulls_a_source_that_is_not_send_on_the_caller() {
        let caller = thread::current().id();
        for workers in [1usize, 2, 3, 8] {
            let pulls = Rc::new(Cell::new(0));
            let mut seen = Vec::new();
            run_pipelined_with(
                ExecPolicy::with_threads(workers),
                &Obs::noop(),
                counted_source(50, &pulls).inspect(|_| assert_eq!(thread::current().id(), caller)),
                |i| (i, thread::current().id()),
                |k, (i, _)| {
                    assert_eq!(thread::current().id(), caller);
                    seen.push((k, i));
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(pulls.get(), 50);
            assert_eq!(seen, (0..50).map(|i| (i, i)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn an_early_stop_pulls_at_most_one_window_past_the_stopping_item() {
        for workers in 1usize..=8 {
            for stop in [0usize, 3, 40] {
                let pulls = Rc::new(Cell::new(0));
                let (obs, registry) = Obs::collecting();
                let mut seen = Vec::new();
                run_pipelined_with(
                    ExecPolicy::with_threads(workers),
                    &obs,
                    counted_source(1000, &pulls),
                    |i| i,
                    |k, i| {
                        seen.push(i);
                        if k == stop {
                            ControlFlow::Break(())
                        } else {
                            ControlFlow::Continue(())
                        }
                    },
                );
                assert_eq!(seen, (0..=stop).collect::<Vec<_>>(), "{workers} workers");
                let pulled = pulls.get();
                assert!(pulled > stop, "{workers} workers pulled {pulled}");
                assert!(
                    pulled <= stop + 1 + PIPELINE_WINDOW,
                    "{workers} workers pulled {pulled} to stop at {stop}"
                );
                if workers == 1 {
                    assert_eq!(pulled, stop + 1);
                }
                let counted = registry.snapshot().counter("sched.stream.items");
                assert_eq!(counted, Some(pulled as u64));
            }
        }
    }

    #[test]
    fn pipelined_runner_bounds_the_window_and_reports_metrics() {
        let (obs, registry) = botmeter_obs::Obs::collecting();
        run_pipelined_with(
            ExecPolicy::with_threads(4),
            &obs,
            0..100,
            |i| vec![i; 8],
            |_, _| {
                thread::sleep(std::time::Duration::from_micros(100));
                ControlFlow::Continue(())
            },
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
                    0..60,
                    |i| {
                        if i == 9 {
                            panic!("producer died");
                        }
                        i
                    },
                    |_, _| {
                        consumed.fetch_add(1, Ordering::Relaxed);
                        ControlFlow::Continue(())
                    },
                );
            }));
            let payload = caught.expect_err("producer panic must resurface");
            assert_eq!(
                payload.downcast_ref::<&'static str>(),
                Some(&"producer died")
            );
            // Only a prefix strictly before the dead item was consumed.
            assert!(consumed.load(Ordering::Relaxed) <= 9);
        });
    }

    #[test]
    fn pipelined_runner_source_panic_resurfaces_without_deadlock() {
        with_silent_panics(|| {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run_pipelined_with(
                    ExecPolicy::with_threads(3),
                    &Obs::noop(),
                    (0..60).inspect(|&i| {
                        if i == 20 {
                            panic!("source died");
                        }
                    }),
                    |i| i,
                    |_, _| ControlFlow::Continue(()),
                );
            }));
            let payload = caught.expect_err("source panic must resurface");
            assert_eq!(payload.downcast_ref::<&'static str>(), Some(&"source died"));
        });
    }

    #[test]
    fn pipelined_runner_consumer_panic_resurfaces_without_deadlock() {
        with_silent_panics(|| {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run_pipelined_with(
                    ExecPolicy::with_threads(3),
                    &Obs::noop(),
                    0..500,
                    |i| i,
                    |i, _| {
                        if i == 5 {
                            panic!("consumer died");
                        }
                        ControlFlow::Continue(())
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
            0..64,
            |i| i,
            |_, item| {
                acc += item;
                ControlFlow::Continue(())
            },
        );
        assert_eq!(acc, (0..64).sum());
    }
}
