//! Span timing and Chrome-trace-format export.
//!
//! A [`SpanTimer`] measures one labelled region: on drop it records the
//! wall time into the span's latency histogram and, when tracing is on,
//! appends a complete event (`"ph": "X"`) to the global trace buffer.
//! [`export_chrome_trace`] serializes that buffer in the Trace Event
//! Format that `chrome://tracing`, Perfetto, and `speedscope` load — one
//! JSON array of events with `ts`/`dur` fields in microseconds, written
//! to three decimals so spans shorter than 1 µs keep their duration.
//!
//! Timestamps are monotonic, relative to the first telemetry use in the
//! process, so a whole measurement campaign shares one timeline.
//!
//! The buffer keeps the newest `TRACE_CAPACITY` events; each older
//! one it drops counts in `trace.dropped`.

use crate::snapshot::json_escape;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the process's telemetry epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One completed span, ready for export.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Region label.
    pub name: &'static str,
    /// Category (subsystem: `sim`, `runner`, `probe`, …).
    pub cat: &'static str,
    /// Start, ns since the telemetry epoch.
    pub ts_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Small dense thread id (Chrome's `tid`).
    pub tid: u64,
}

/// Most events the trace buffer holds (under 4 MB of events).
const TRACE_CAPACITY: usize = 1 << 16;

fn trace_buffer() -> &'static Mutex<VecDeque<TraceEvent>> {
    static BUF: OnceLock<Mutex<VecDeque<TraceEvent>>> = OnceLock::new();
    BUF.get_or_init(|| {
        // Registered with the buffer so every traced snapshot lists it.
        crate::global().counter("trace.dropped");
        Mutex::new(VecDeque::new())
    })
}

/// Appends `event` to a ring of `capacity` events; returns true when the
/// oldest event was dropped to make room.
fn push_bounded(ring: &mut VecDeque<TraceEvent>, capacity: usize, event: TraceEvent) -> bool {
    let full = ring.len() >= capacity;
    if full {
        ring.pop_front();
    }
    ring.push_back(event);
    full
}

/// Small dense id for the current thread (stable within the process).
pub fn current_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Relaxed);
    }
    TID.with(|t| *t)
}

/// RAII wall-time measurement of one labelled region.
///
/// Construct through the [`span!`](crate::span) macro (which also
/// registers the span's histogram) or [`SpanTimer::start`]. When
/// telemetry is disabled at construction the timer is inert: drop does
/// nothing.
#[must_use = "a span measures until it is dropped"]
pub struct SpanTimer {
    start_ns: Option<u64>,
    name: &'static str,
    cat: &'static str,
    histogram: Option<&'static crate::LogHistogram>,
}

impl SpanTimer {
    /// Starts a span; inert when telemetry is disabled.
    pub fn start(
        name: &'static str,
        cat: &'static str,
        histogram: Option<&'static crate::LogHistogram>,
    ) -> SpanTimer {
        let start_ns = crate::enabled().then(now_ns);
        SpanTimer {
            start_ns,
            name,
            cat,
            histogram,
        }
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        let Some(start) = self.start_ns else { return };
        let end = now_ns();
        let dur = end.saturating_sub(start);
        if let Some(h) = self.histogram {
            h.record(dur);
        }
        if crate::tracing_enabled() {
            let event = TraceEvent {
                name: self.name,
                cat: self.cat,
                ts_ns: start,
                dur_ns: dur,
                tid: current_tid(),
            };
            let mut ring = trace_buffer().lock().unwrap_or_else(|p| p.into_inner());
            if push_bounded(&mut ring, TRACE_CAPACITY, event) {
                crate::counter!("trace.dropped").inc();
            }
        }
    }
}

/// Number of buffered trace events.
pub fn trace_event_count() -> usize {
    trace_buffer()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .len()
}

/// Drops all buffered trace events.
pub fn clear_trace() {
    trace_buffer()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clear();
}

/// Serializes the buffered events as a Chrome trace (JSON array form).
///
/// Events are sorted by `ts` so consumers that assume ordered input (and
/// the integration tests) see a monotone timeline.
pub fn export_chrome_trace() -> String {
    let ring = trace_buffer()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clone();
    let mut events = Vec::from(ring);
    events.sort_by_key(|e| (e.ts_ns, e.tid));
    // Starts with a process-name metadata event, the convention Perfetto
    // shows titles with; real events follow comma-separated.
    let mut out = String::from(
        "[{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
         \"args\": {\"name\": \"numa-perf-tools\"}}",
    );
    for e in &events {
        write_event(&mut out, e);
    }
    out.push_str("]\n");
    out
}

/// Appends one complete event, `ts` and `dur` as µs with three decimals.
fn write_event(out: &mut String, e: &TraceEvent) {
    out.push_str(",\n{\"name\": ");
    json_escape(out, e.name);
    out.push_str(", \"cat\": ");
    json_escape(out, e.cat);
    let _ = write!(
        out,
        ", \"ph\": \"X\", \"ts\": {}.{:03}, \"dur\": {}.{:03}, \"pid\": 1, \"tid\": {}}}",
        e.ts_ns / 1_000,
        e.ts_ns % 1_000,
        e.dur_ns / 1_000,
        e.dur_ns % 1_000,
        e.tid
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_microsecond_spans_keep_their_duration() {
        let mut out = String::new();
        write_event(
            &mut out,
            &TraceEvent {
                name: "test.short",
                cat: "test",
                ts_ns: 5_000_007,
                dur_ns: 1_234,
                tid: 3,
            },
        );
        assert!(out.contains("\"ts\": 5000.007,"), "{out}");
        assert!(out.contains("\"dur\": 1.234,"), "{out}");
    }

    #[test]
    fn full_ring_overwrites_the_oldest_and_counts_drops() {
        let (capacity, k) = (8, 5);
        let mut ring = VecDeque::new();
        let dropped = (0..capacity + k)
            .filter(|&i| {
                let event = TraceEvent {
                    name: "test.ring",
                    cat: "test",
                    ts_ns: i as u64,
                    dur_ns: 1,
                    tid: 1,
                };
                push_bounded(&mut ring, capacity, event)
            })
            .count();
        assert_eq!(ring.len(), capacity);
        assert_eq!(dropped, k);
        // The survivors are the newest `capacity` events, oldest first.
        let ts: Vec<u64> = ring.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, (k as u64..(capacity + k) as u64).collect::<Vec<_>>());
    }
}
