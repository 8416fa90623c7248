//! The scoped worker pool.
//!
//! One [`Pool::run`] call is one fork-join region: the caller thread
//! feeds chunk indices through a bounded queue, `threads` scoped
//! workers pull, execute, and deposit `(chunk, results)` pairs; the
//! caller merges the deposits **by chunk index** — which is submission
//! order — so the output vector is bit-identical to a sequential loop no
//! matter how the chunks interleaved. There is no long-lived state: the
//! pool owns only configuration, so a panicked run poisons nothing and
//! the same pool value is immediately reusable.
//!
//! Timing inside the pool goes through `np_telemetry::now_ns` (the
//! facade's monotonic anchor) — the audit's `no-wall-clock` rule
//! forbids `Instant::now()` in this crate so the deterministic-output
//! contract is mechanically checkable: nothing in here can branch on a
//! wall clock.

use crate::chunk::{auto_chunk_size, Chunker, TARGET_CHUNK_NS};
use crate::queue::{BoundedQueue, QueueStats};
use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

/// Bounded-queue capacity: chunk indices in flight between the
/// submitting thread and the workers.
const QUEUE_CAPACITY: usize = 32;

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads (clamped to at least 1).
    pub threads: usize,
    /// Fixed chunk size; `None` sizes chunks adaptively from the measured
    /// per-item cost, targeting [`TARGET_CHUNK_NS`] of work per chunk.
    pub chunk_size: Option<usize>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            chunk_size: None,
        }
    }
}

/// A typed execution failure, surfaced by [`Pool::try_run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// A worker panicked while executing the item at `index`.
    Panic {
        /// The item whose closure panicked (earliest across the run).
        index: usize,
        /// The panic payload, rendered when it was a string.
        message: String,
    },
    /// The task closure returned an error for the item at `index`.
    Task {
        /// The failing item (earliest across the run).
        index: usize,
        /// The closure's error.
        message: String,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Panic { index, message } => {
                write!(f, "worker panicked on item {index}: {message}")
            }
            PoolError::Task { index, message } => {
                write!(f, "task failed on item {index}: {message}")
            }
        }
    }
}

/// Everything one pool run produces besides the merged results.
#[derive(Debug)]
pub struct RunReport<U> {
    /// Results, merged in submission order.
    pub results: Vec<U>,
    /// Per-chunk worker attribution and timing, indexed by chunk — the
    /// raw material of the `np report` worker timeline and the one record
    /// of who ran what. Timestamps are `np_telemetry::now_ns` (monotonic,
    /// process-epoch), so a chunk's execution time is `end_ns - start_ns`
    /// and gaps between one worker's chunks are real idle/queue-wait time.
    pub profile: Vec<ChunkProfile>,
    /// Counted queue traffic for the run: items moved and times either
    /// side blocked. Counts, not wall-clock, so overhead regressions
    /// (wakeup storms, serialisation) are assertable without timing
    /// flakiness. All zero on the inline single-worker fast path, which
    /// has no queue at all.
    pub queue: QueueStats,
}

/// When and where one chunk ran: which worker took it, how long that
/// worker sat in `queue.pop` beforehand, and the chunk's execution
/// window. This is what explains a measured slowdown that per-chunk
/// durations alone cannot: contention shows up as wait, imbalance as
/// trailing idle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChunkProfile {
    /// Chunk index (submission order).
    pub chunk: usize,
    /// Worker that executed the chunk.
    pub worker: usize,
    /// Nanoseconds the worker blocked on the queue before this chunk.
    pub wait_ns: u64,
    /// Chunk execution start, monotonic ns.
    pub start_ns: u64,
    /// Chunk execution end, monotonic ns.
    pub end_ns: u64,
}

/// What actually went wrong inside a worker, pre-merge. The panic payload
/// is kept intact so [`Pool::run`] can re-raise it unchanged.
enum Failure {
    Panic {
        index: usize,
        payload: Box<dyn Any + Send>,
    },
    Task {
        index: usize,
        message: String,
    },
}

impl Failure {
    fn index(&self) -> usize {
        match self {
            Failure::Panic { index, .. } | Failure::Task { index, .. } => *index,
        }
    }

    fn into_error(self) -> PoolError {
        match self {
            Failure::Panic { index, payload } => PoolError::Panic {
                index,
                message: panic_message(payload.as_ref()),
            },
            Failure::Task { index, message } => PoolError::Task { index, message },
        }
    }

    /// The payload `resume_unwind` re-raises on the caller thread. A task
    /// failure cannot occur under an infallible closure, but mapping it to
    /// a string payload keeps the propagation total — no unreachable arm
    /// to assert over.
    fn into_panic_payload(self) -> Box<dyn Any + Send> {
        match self {
            Failure::Panic { payload, .. } => payload,
            Failure::Task { index, message } => {
                Box::new(format!("infallible task failed on item {index}: {message}"))
            }
        }
    }
}

/// One executed chunk: its per-item results (or the failure that stopped
/// it) plus the timing/attribution profile.
type Deposit<U> = (Result<Vec<U>, Failure>, ChunkProfile);

/// Everything [`Pool::execute`] produces; [`RunReport`] is its public
/// face minus the typed failure.
struct Execution<U> {
    outcome: Result<Vec<U>, Failure>,
    profile: Vec<ChunkProfile>,
    queue: QueueStats,
}

/// Measured cost fed back from workers to the adaptive producer:
/// `(items attempted, execution ns)` accumulated over finished chunks.
/// The producer waits on `ready` until the first chunk lands, then sizes
/// every subsequent chunk from the running average — measurement instead
/// of guesswork, at the price of a handful of size-1 probe chunks.
struct CostFeedback {
    done: Mutex<(u64, u64)>,
    ready: Condvar,
}

/// Renders a panic payload the way the default hook would.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The deterministic fork-join worker pool. See the module docs.
#[derive(Debug, Clone)]
pub struct Pool {
    config: PoolConfig,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::with_config(PoolConfig::default())
    }
}

impl Pool {
    /// A pool with `threads` workers and adaptive chunking.
    pub fn new(threads: usize) -> Pool {
        Pool::with_config(PoolConfig {
            threads,
            ..PoolConfig::default()
        })
    }

    /// A pool with explicit configuration.
    pub fn with_config(config: PoolConfig) -> Pool {
        Pool { config }
    }

    /// The effective worker count.
    pub fn threads(&self) -> usize {
        self.config.threads.max(1)
    }

    /// Runs `f` over `0..items`, returning results in index order.
    /// A worker panic is re-raised on the caller (earliest item wins).
    pub fn run<U, F>(&self, items: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        self.run_report(items, f).results
    }

    /// [`Pool::run`] over a slice, preserving order.
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.run(items.len(), |i| f(&items[i]))
    }

    /// Runs `f` and returns the full [`RunReport`] (results, per-chunk
    /// profile, queue counts). Panics propagate as in [`Pool::run`].
    pub fn run_report<U, F>(&self, items: usize, f: F) -> RunReport<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let guarded = |i: usize| -> Result<U, Failure> {
            catch_unwind(AssertUnwindSafe(|| f(i)))
                .map_err(|payload| Failure::Panic { index: i, payload })
        };
        let exec = self.execute(items, &guarded);
        match exec.outcome {
            Ok(results) => RunReport {
                results,
                profile: exec.profile,
                queue: exec.queue,
            },
            Err(failure) => resume_unwind(failure.into_panic_payload()),
        }
    }

    /// Runs a fallible `f` over `0..items`. The earliest failure — a
    /// returned error or a caught panic — comes back as a typed
    /// [`PoolError`]; the pool itself stays fully usable afterwards.
    pub fn try_run<U, F>(&self, items: usize, f: F) -> Result<Vec<U>, PoolError>
    where
        U: Send,
        F: Fn(usize) -> Result<U, String> + Sync,
    {
        let guarded = |i: usize| -> Result<U, Failure> {
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(Ok(v)) => Ok(v),
                Ok(Err(message)) => Err(Failure::Task { index: i, message }),
                Err(payload) => Err(Failure::Panic { index: i, payload }),
            }
        };
        self.execute(items, &guarded)
            .outcome
            .map_err(Failure::into_error)
    }

    /// The fork-join engine shared by every entry point. Routes to one of
    /// three strategies:
    ///
    /// - **inline** when only one worker would exist — no queue, no
    ///   thread, no barrier, so `threads == 1` costs exactly a sequential
    ///   loop plus per-chunk timestamps;
    /// - **fixed geometry** when [`PoolConfig::chunk_size`] pins the
    ///   chunk size;
    /// - **adaptive** otherwise, where the producer measures per-item
    ///   cost from size-1 probes and then targets [`TARGET_CHUNK_NS`] of
    ///   work per chunk.
    fn execute<U, G>(&self, items: usize, g: &G) -> Execution<U>
    where
        U: Send,
        G: Fn(usize) -> Result<U, Failure> + Sync,
    {
        let threads = self.threads();
        let Some(size) = self.config.chunk_size else {
            if threads == 1 || items <= 1 {
                return self.execute_inline(items, g, Chunker::new(items, items.max(1)));
            }
            return self.execute_adaptive(items, g, threads);
        };
        let chunker = Chunker::new(items, size);
        let chunks = chunker.chunk_count();
        // A run never benefits from more workers than chunks.
        let workers = threads.min(chunks.max(1));
        if workers == 1 {
            return self.execute_inline(items, g, chunker);
        }
        self.execute_queued(items, g, workers, |queue, _| {
            for chunk in 0..chunks {
                if !queue.push((chunk, chunker.bounds(chunk))) {
                    break;
                }
            }
        })
    }

    /// A run with measured-cost chunk sizing.
    fn execute_adaptive<U, G>(&self, items: usize, g: &G, threads: usize) -> Execution<U>
    where
        U: Send,
        G: Fn(usize) -> Result<U, Failure> + Sync,
    {
        let workers = threads.min(items);
        self.execute_queued(items, g, workers, |queue, feedback| {
            // Size-1 probes — enough for every worker to report twice —
            // establish the per-item cost; after the first lands, every
            // chunk targets `TARGET_CHUNK_NS` of measured work while
            // still spreading the remainder over all workers.
            let probes = (2 * workers).min(items);
            let mut next = 0usize;
            let mut chunk = 0usize;
            while next < probes {
                if !queue.push((chunk, next..next + 1)) {
                    return;
                }
                next += 1;
                chunk += 1;
            }
            while next < items {
                let per_item_ns = {
                    let mut done = feedback.done.lock().unwrap_or_else(|p| p.into_inner());
                    // Wait-in-loop: spurious wakeups re-check. Progress is
                    // guaranteed — the probes above are already queued and
                    // every popped chunk reports, failed or not.
                    while done.0 == 0 {
                        done = feedback.ready.wait(done).unwrap_or_else(|p| p.into_inner());
                    }
                    (done.1 / done.0).max(1)
                };
                let size = auto_chunk_size(items - next, workers, per_item_ns, TARGET_CHUNK_NS);
                let hi = (next + size).min(items);
                if !queue.push((chunk, next..hi)) {
                    return;
                }
                next = hi;
                chunk += 1;
            }
        })
    }

    /// The single-worker fast path: chunks run on the caller thread in
    /// submission order with no queue, no spawn and no barrier. Taken
    /// whenever only one worker would exist.
    fn execute_inline<U, G>(&self, items: usize, g: &G, chunker: Chunker) -> Execution<U>
    where
        U: Send,
        G: Fn(usize) -> Result<U, Failure> + Sync,
    {
        let chunks = chunker.chunk_count();
        let mut results = Vec::with_capacity(items);
        let mut profiles = Vec::with_capacity(chunks);
        let mut first_failure: Option<Failure> = None;
        for chunk in 0..chunks {
            let started = np_telemetry::now_ns();
            for i in chunker.bounds(chunk) {
                match g(i) {
                    Ok(v) => results.push(v),
                    Err(e) => {
                        if first_failure.as_ref().is_none_or(|f| e.index() < f.index()) {
                            first_failure = Some(e);
                        }
                        break;
                    }
                }
            }
            profiles.push(ChunkProfile {
                chunk,
                worker: 0,
                wait_ns: 0,
                start_ns: started,
                end_ns: np_telemetry::now_ns(),
            });
        }
        record_pool_counters(&profiles, 1);
        Execution {
            outcome: match first_failure {
                None => Ok(results),
                Some(e) => Err(e),
            },
            profile: profiles,
            queue: QueueStats::default(),
        }
    }

    /// The queued multi-worker engine: `produce` feeds `(chunk, range)`
    /// pairs, `workers` scoped threads execute them, and the merge is one
    /// ordered pass over chunk-indexed deposit slots — no sort, and the
    /// result values move straight into the output vector.
    fn execute_queued<U, G, P>(
        &self,
        items: usize,
        g: &G,
        workers: usize,
        produce: P,
    ) -> Execution<U>
    where
        U: Send,
        G: Fn(usize) -> Result<U, Failure> + Sync,
        P: FnOnce(&BoundedQueue<(usize, Range<usize>)>, &CostFeedback),
    {
        let queue: BoundedQueue<(usize, Range<usize>)> = BoundedQueue::new(QUEUE_CAPACITY);
        let feedback = CostFeedback {
            done: Mutex::new((0, 0)),
            ready: Condvar::new(),
        };
        let deposits: Mutex<Vec<Option<Deposit<U>>>> = Mutex::new(Vec::new());

        // Barrier-synchronised start: no worker pulls a chunk until every
        // worker thread exists, so measured walls (bench harness samples,
        // chunk profiles) never fold thread-spawn skew into the first
        // chunks. Determinism is unaffected — merge order is by chunk
        // index either way.
        let start = std::sync::Barrier::new(workers);
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let queue = &queue;
                let deposits = &deposits;
                let feedback = &feedback;
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    loop {
                        let waited = np_telemetry::now_ns();
                        let Some((chunk, range)) = queue.pop() else {
                            break;
                        };
                        let wait_ns = np_telemetry::now_ns().saturating_sub(waited);
                        if np_telemetry::enabled() {
                            np_telemetry::histogram!("par.idle_ns").record(wait_ns);
                        }
                        let started = np_telemetry::now_ns();
                        let mut out = Vec::with_capacity(range.len());
                        let mut failure = None;
                        let mut attempted = 0u64;
                        for i in range {
                            attempted += 1;
                            match g(i) {
                                Ok(v) => out.push(v),
                                Err(e) => {
                                    failure = Some(e);
                                    break;
                                }
                            }
                        }
                        let ended = np_telemetry::now_ns();
                        {
                            // Report measured cost; only the transition
                            // out of "nothing finished yet" notifies —
                            // that is the only state the adaptive
                            // producer ever waits on.
                            let mut done = feedback.done.lock().unwrap_or_else(|p| p.into_inner());
                            let first = done.0 == 0;
                            done.0 += attempted;
                            done.1 += ended.saturating_sub(started);
                            if first && attempted > 0 {
                                feedback.ready.notify_all();
                            }
                        }
                        let profile = ChunkProfile {
                            chunk,
                            worker,
                            wait_ns,
                            start_ns: started,
                            end_ns: ended,
                        };
                        let deposit = match failure {
                            None => Ok(out),
                            Some(e) => Err(e),
                        };
                        // Deposits land directly in their chunk slot, so
                        // the merge needs no sort. Poison recovery as in
                        // the queue: a panicked sibling never leaves a
                        // slot torn (the slot write is a plain store).
                        let mut slots = deposits.lock().unwrap_or_else(|p| p.into_inner());
                        if slots.len() <= chunk {
                            slots.resize_with(chunk + 1, || None);
                        }
                        slots[chunk] = Some((deposit, profile));
                    }
                });
            }
            produce(&queue, &feedback);
            queue.close();
        });

        // Merge in chunk order — submission order — regardless of which
        // worker finished when. The earliest failure (by item index) wins
        // deterministically: chunks are ordered index ranges and a chunk
        // stops at its first failing item. Every pushed chunk is popped
        // exactly once (close drains, never discards), so the slot pass
        // reconstructs submission order directly.
        let stats = queue.stats();
        let slots = deposits.into_inner().unwrap_or_else(|p| p.into_inner());
        debug_assert!(
            slots.iter().all(Option::is_some),
            "every chunk executed exactly once"
        );
        let chunks = slots.len();
        let mut results = Vec::with_capacity(items);
        let mut profiles = Vec::with_capacity(chunks);
        let mut first_failure: Option<Failure> = None;
        for (deposit, profile) in slots.into_iter().flatten() {
            profiles.push(profile);
            match deposit {
                Ok(values) => results.extend(values),
                Err(e) => {
                    if first_failure.as_ref().is_none_or(|f| e.index() < f.index()) {
                        first_failure = Some(e);
                    }
                }
            }
        }
        record_pool_counters(&profiles, workers);
        Execution {
            outcome: match first_failure {
                None => Ok(results),
                Some(e) => Err(e),
            },
            profile: profiles,
            queue: stats,
        }
    }
}

/// Merge-time telemetry: total chunks executed, plus how many chunks each
/// worker took beyond its fair share (the steal signal).
fn record_pool_counters(profiles: &[ChunkProfile], workers: usize) {
    let chunks = profiles.len();
    np_telemetry::counter!("par.tasks").add(chunks as u64);
    if workers == 0 || chunks == 0 {
        return;
    }
    let fair_share = chunks.div_ceil(workers);
    let mut executed = vec![0usize; workers];
    for p in profiles {
        if let Some(e) = executed.get_mut(p.worker) {
            *e += 1;
        }
    }
    let steal: u64 = executed
        .iter()
        .map(|&e| e.saturating_sub(fair_share) as u64)
        .sum();
    np_telemetry::counter!("par.steal").add(steal);
}

/// Greedy list-scheduling makespan of `chunk_ns` on `workers` identical
/// workers, in submission order: each chunk goes to the least-loaded
/// worker. This is the parallel wall time the recorded chunk costs imply
/// for a given worker count, independent of how many cores the recording
/// host actually had — the model `np bench` reports pooled cells'
/// speedups from (and the classic 2-approximation of the optimal schedule).
pub fn modeled_makespan_ns(chunk_ns: &[u64], workers: usize) -> u64 {
    let mut load = vec![0u64; workers.max(1)];
    for &c in chunk_ns {
        if let Some(min) = load.iter_mut().min() {
            *min += c;
        }
    }
    load.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_matches_sequential_for_every_thread_count() {
        let expect: Vec<u64> = (0..100u64).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            let got = pool.run(100, |i| (i as u64) * (i as u64));
            assert_eq!(got, expect, "{threads} threads");
        }
    }

    #[test]
    fn map_preserves_order() {
        let items: Vec<i32> = (0..57).collect();
        let pool = Pool::new(4);
        let doubled = pool.map(&items, |&v| v * 2);
        assert_eq!(doubled, items.iter().map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_run_returns_empty() {
        let pool = Pool::new(4);
        let out: Vec<usize> = pool.run(0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn try_run_surfaces_the_earliest_task_error() {
        let pool = Pool::new(4);
        let err = pool
            .try_run(64, |i| {
                if i == 17 || i == 41 {
                    Err(format!("bad item {i}"))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
        assert_eq!(
            err,
            PoolError::Task {
                index: 17,
                message: "bad item 17".to_string()
            }
        );
    }

    #[test]
    fn panic_becomes_a_typed_error_and_the_pool_survives() {
        let pool = Pool::new(4);
        let err = pool
            .try_run(32, |i| {
                if i == 9 {
                    panic!("boom at {i}");
                }
                Ok(i)
            })
            .unwrap_err();
        match err {
            PoolError::Panic { index, message } => {
                assert_eq!(index, 9);
                assert!(message.contains("boom"), "{message}");
            }
            other => panic!("expected panic error, got {other}"),
        }
        // Not poisoned: the same pool value runs clean work fine.
        assert_eq!(pool.run(8, |i| i), (0..8).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "carried payload")]
    fn run_reraises_worker_panics() {
        let pool = Pool::new(2);
        pool.run(16, |i| {
            if i == 3 {
                panic!("carried payload");
            }
            i
        });
    }

    #[test]
    fn report_times_every_chunk() {
        let pool = Pool::with_config(PoolConfig {
            threads: 2,
            chunk_size: Some(4),
        });
        let report = pool.run_report(16, |i| i);
        assert_eq!(report.results.len(), 16);
        assert_eq!(report.profile.len(), 4);
        assert_eq!(report.queue.pops, 4);
    }

    #[test]
    fn profile_attributes_every_chunk_to_a_worker() {
        let pool = Pool::with_config(PoolConfig {
            threads: 3,
            chunk_size: Some(2),
        });
        let report = pool.run_report(10, |i| i * 3);
        assert_eq!(report.profile.len(), 5);
        for (chunk, p) in report.profile.iter().enumerate() {
            assert_eq!(p.chunk, chunk, "profile sits at its chunk slot");
            assert!(p.worker < 3);
            assert!(p.end_ns >= p.start_ns);
        }
        // Every chunk the queue handed out is attributed exactly once.
        assert_eq!(report.queue.pops, 5);
    }

    #[test]
    fn makespan_model_is_work_conserving() {
        // 4 equal chunks on 2 workers: two per worker.
        assert_eq!(modeled_makespan_ns(&[10, 10, 10, 10], 2), 20);
        // One giant chunk dominates regardless of workers.
        assert_eq!(modeled_makespan_ns(&[100, 1, 1, 1], 4), 100);
        // One worker serialises.
        assert_eq!(modeled_makespan_ns(&[5, 6, 7], 1), 18);
        assert_eq!(modeled_makespan_ns(&[], 3), 0);
    }
}
