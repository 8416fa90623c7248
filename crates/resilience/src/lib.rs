//! # np-resilience — fault tolerance for the paths that leave the process
//!
//! The Memhist front-end pulls PEBS latency samples from a remote probe
//! over TCP and cycles thresholds on a timeslice schedule, so a dropped
//! connection or a stalled probe silently corrupts the histogram. This
//! crate is the policy layer that keeps those paths honest, in the spirit
//! of NUMAscope's capture daemon and LIKWID's measurement harness (bounded
//! reads, reconnects, degraded-but-usable results):
//!
//! * [`RetryPolicy`] — exponential backoff with **deterministic, seedable
//!   jitter** and max-attempts. Determinism matters here for the same
//!   reason it matters in the simulator: a flaky-looking retry schedule
//!   cannot be debugged.
//! * [`StreamDeadlines`] — read/write timeouts pinned on every socket,
//!   plus [`read_line_bounded`] so a frame read can never allocate
//!   without bound.
//! * [`FaultInjector`] — the seam tests and the simulator plug into. The
//!   deterministic [`ScriptedFaults`] implementation injects
//!   drop-connection, truncate-payload, delay, garbage-bytes and
//!   refuse-accept at named sites, in scripted order.
//!
//! Everything is zero-dependency (np-telemetry is the workspace's own
//! metrics crate) and synchronous: the suite's I/O is blocking by design,
//! so resilience is expressed as deadlines and retries, not as an
//! executor.
//!
//! ```
//! use np_resilience::{RetryPolicy, ScriptedFaults, Fault, FaultInjector};
//!
//! // Deterministic backoff schedule: same seed, same jitter.
//! let policy = RetryPolicy::new(4).with_seed(7);
//! assert_eq!(policy.backoff(1), RetryPolicy::new(4).with_seed(7).backoff(1));
//!
//! // Scripted faults drain in order, per site.
//! let faults = ScriptedFaults::new().inject("probe.response", Fault::DropConnection);
//! assert!(matches!(faults.next("probe.response"), Some(Fault::DropConnection)));
//! assert!(faults.next("probe.response").is_none());
//! ```

pub mod fault;
pub mod io;
pub mod retry;

pub use fault::{Fault, FaultInjector, NoFaults, ScriptedFaults};
pub use io::{read_line_bounded, StreamDeadlines};
pub use retry::{RetryError, RetryPolicy};
