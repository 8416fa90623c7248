//! # np-telemetry — self-observability for the tool suite
//!
//! The paper's thesis is that performance must be measured to be managed;
//! this crate applies that to the measurement pipeline itself. Every layer
//! of the workspace (simulator engine, counter acquisition, runner,
//! session archives, the Memhist TCP probe) reports into one global,
//! zero-dependency registry of:
//!
//! * **counters** — monotonic totals (`sim.runs`, `probe.errors`),
//! * **gauges** — instantaneous levels (`runner.active_workers`),
//! * **histograms** — log-bucketed latency/size distributions
//!   ([`LogHistogram`]),
//! * **spans** — RAII wall-time regions ([`SpanTimer`], [`span!`]) that
//!   double as Chrome-trace events ([`export_chrome_trace`]) loadable in
//!   `chrome://tracing` / Perfetto.
//!
//! ## Cost model
//!
//! Telemetry is **off by default**. Disabled, every instrumentation site
//! costs one relaxed atomic load (the [`enabled`] check) — no locks, no
//! allocation, no time reads. Enabled, counters/gauges/histograms are
//! single relaxed RMW operations on `&'static` atomics (registration
//! locks once per site, then handles are cached in `OnceLock`s by the
//! macros). Span *tracing* additionally buffers events under a mutex and
//! is gated separately ([`set_tracing`]) because it allocates.
//!
//! ```
//! np_telemetry::set_enabled(true);
//! np_telemetry::counter!("demo.widgets").add(3);
//! {
//!     let _span = np_telemetry::span!("demo.frobnicate", "demo");
//! } // span records its wall time here
//! let snap = np_telemetry::global().snapshot();
//! assert_eq!(snap.counters.iter().find(|(n, _)| n == "demo.widgets").unwrap().1, 3);
//! np_telemetry::set_enabled(false);
//! ```

pub mod histogram;
pub mod registry;
pub mod snapshot;
pub mod timeseries;
pub mod trace;

pub use histogram::{LogHistogram, BUCKETS};
pub use registry::{global, Counter, Gauge, MetricsRegistry};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot};
pub use timeseries::{
    active_phase, current_phase, phase, sample, sample_cumulative, sampling_enabled, set_sampling,
    Bin, PhaseGuard, Sampler, Series,
};
pub use trace::{
    clear_trace, current_tid, export_chrome_trace, now_ns, trace_event_count, SpanTimer, TraceEvent,
};

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

static ENABLED: AtomicBool = AtomicBool::new(false);
static TRACING: AtomicBool = AtomicBool::new(false);

/// Whether metrics are being recorded. This is the whole hot-path cost of
/// disabled telemetry: one relaxed load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Turns metric recording on or off at runtime.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Whether spans also emit Chrome-trace events (implies extra buffering).
#[inline(always)]
pub fn tracing_enabled() -> bool {
    TRACING.load(Relaxed)
}

/// Turns trace-event buffering on or off. Tracing only takes effect while
/// [`enabled`] is also true (spans are inert otherwise).
pub fn set_tracing(on: bool) {
    TRACING.store(on, Relaxed);
}

/// Registers-once and returns the `&'static Counter` for a name.
///
/// The name must be a string literal (it is the registry key and the
/// `OnceLock` cache key of this call site).
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SITE: std::sync::OnceLock<&'static $crate::Counter> = std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::global().counter($name))
    }};
}

/// Registers-once and returns the `&'static Gauge` for a name.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static SITE: std::sync::OnceLock<&'static $crate::Gauge> = std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::global().gauge($name))
    }};
}

/// Registers-once and returns the `&'static LogHistogram` for a name.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static SITE: std::sync::OnceLock<&'static $crate::LogHistogram> =
            std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::global().histogram($name))
    }};
}

/// Starts a [`SpanTimer`] for the region: `span!("name", "category")`.
///
/// Bind it to a local (`let _span = ...`) — the region ends when the
/// binding drops. Wall time lands in the histogram `span.<name>`; with
/// tracing on, a Chrome-trace event is buffered too.
#[macro_export]
macro_rules! span {
    ($name:literal, $cat:literal) => {
        $crate::SpanTimer::start(
            $name,
            $cat,
            Some($crate::histogram!(concat!("span.", $name))),
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Tests toggle process-global state; serialize them.
    pub(crate) fn lock() -> MutexGuard<'static, ()> {
        static M: OnceLock<Mutex<()>> = OnceLock::new();
        M.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let _l = lock();
        set_enabled(false);
        let c = counter!("test.disabled");
        c.reset();
        c.add(5);
        assert_eq!(c.get(), 0);
        let h = histogram!("test.disabled_h");
        h.reset();
        // SpanTimer started disabled stays inert even if enabled later.
        let span = SpanTimer::start("test.inert", "test", Some(h));
        set_enabled(true);
        drop(span);
        set_enabled(false);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn counters_and_gauges_accumulate_when_enabled() {
        let _l = lock();
        set_enabled(true);
        let c = counter!("test.counter");
        c.reset();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        let g = gauge!("test.gauge");
        g.reset();
        g.add(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
        set_enabled(false);
    }

    #[test]
    fn same_name_same_handle() {
        // Registering a name mid-snapshot would break the determinism
        // test's equality, so this one serializes too.
        let _l = lock();
        let a = global().counter("test.same");
        let b = global().counter("test.same");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn snapshot_is_deterministic_and_sorted() {
        let _l = lock();
        set_enabled(true);
        global().counter("test.z_last").reset();
        global().counter("test.a_first").reset();
        global().counter("test.z_last").add(2);
        global().counter("test.a_first").add(1);
        let s1 = global().snapshot();
        let s2 = global().snapshot();
        assert_eq!(s1, s2);
        assert_eq!(s1.to_json(), s2.to_json());
        let names: Vec<&str> = s1.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        set_enabled(false);
    }

    #[test]
    fn spans_record_wall_time_and_trace_events() {
        let _l = lock();
        set_enabled(true);
        set_tracing(true);
        clear_trace();
        let h = histogram!("test.span_h");
        h.reset();
        {
            let _s = SpanTimer::start("test.region", "test", Some(h));
            std::hint::black_box((0..1000).sum::<u64>());
        }
        assert_eq!(h.count(), 1);
        assert_eq!(trace_event_count(), 1);
        let json = export_chrome_trace();
        assert!(json.contains("\"test.region\""));
        assert!(json.contains("\"ph\": \"X\""));
        set_tracing(false);
        set_enabled(false);
        clear_trace();
    }
}
