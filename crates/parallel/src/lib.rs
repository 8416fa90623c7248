//! # np-parallel — deterministic fork-join execution
//!
//! The paper's code-to-indicator step is built from repeated,
//! identically-configured simulation runs (EvSel batches), per-threshold
//! PEBS passes (Memhist) and exhaustive window scans (Phasenprüfer) — all
//! embarrassingly parallel, and all feeding Welch t-tests and regressions
//! that must not change when the host grows cores. This crate supplies the
//! execution spine for that fan-out with one non-negotiable contract:
//!
//! **Determinism.** A [`Pool`] splits `0..items` into contiguous chunks
//! ([`Chunker`]), hands them to scoped `std::thread` workers through a
//! [`BoundedQueue`], and merges every result back **in submission order**.
//! The merged output is bit-identical for any thread count, any chunk
//! size, and any interleaving — the schedule can only change *when* a
//! chunk runs, never *where* its results land.
//!
//! **Panic propagation.** A worker panic is caught per item; [`Pool::run`]
//! re-raises the earliest one (by item index) on the caller, while
//! [`Pool::try_run`] converts it into a typed [`PoolError`] without
//! poisoning anything — the pool is per-call scoped state and stays
//! reusable.
//!
//! **Schedule record/replay.** Every run records its dequeue interleaving
//! as a [`Trace`]; a [`Schedule`] can replay a trace exactly (a mutex +
//! condvar turnstile serialises queue acquisition in the recorded order)
//! or generate a seeded pseudo-random order — the test harness for "a
//! delayed task never reorders merged output".
//!
//! **Telemetry.** Per-pool counters `par.tasks` (chunks executed),
//! `par.steal` (chunks taken beyond a worker's fair share) and the
//! `par.idle_ns` histogram (time spent waiting at the queue) land in the
//! np-telemetry registry when it is enabled.
//!
//! The crate is zero-dependency (np-telemetry only) and — like the
//! simulator — audit-confined: no wall clocks (`no-wall-clock`), no
//! `Ordering::Relaxed` (`atomics-ordering`).

pub mod chunk;
pub mod pool;
pub mod queue;
pub mod schedule;

pub use chunk::{auto_chunk_size, Chunker, TARGET_CHUNK_NS};
pub use pool::{modeled_makespan_ns, ChunkProfile, Pool, PoolConfig, PoolError, RunReport};
pub use queue::{BoundedQueue, QueueStats};
pub use schedule::{Schedule, Step, Trace};
