//! The global metrics registry: named counters, gauges, and histograms.
//!
//! Registration takes a lock once per *name*; the returned handles are
//! `&'static` atomics, so the hot path (increment/record) is lock-free.
//! Instrumentation sites cache their handle in a `OnceLock` via the
//! [`counter!`](crate::counter), [`gauge!`](crate::gauge) and
//! [`histogram!`](crate::histogram) macros, so steady-state cost is one
//! relaxed atomic load (the enable check) plus one atomic add when
//! enabled.

use crate::histogram::LogHistogram;
use crate::snapshot::{HistogramSnapshot, MetricsSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};

/// A monotonically increasing count.
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` (no-op while telemetry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Relaxed);
        }
    }

    /// Adds 1 (no-op while telemetry is disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.value.store(0, Relaxed);
    }
}

/// A value that can move both ways (queue depths, occupancy, …).
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a zeroed gauge.
    pub const fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    /// Sets the value (no-op while telemetry is disabled).
    #[inline]
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.value.store(v, Relaxed);
        }
    }

    /// Adds `d` (may be negative; no-op while telemetry is disabled).
    #[inline]
    pub fn add(&self, d: i64) {
        if crate::enabled() {
            self.value.fetch_add(d, Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.value.store(0, Relaxed);
    }
}

/// Name → handle maps for every metric kind.
///
/// Keys are owned so names may be built at runtime (per-NUMA-node
/// counters like `sim.mem_ops.node3`); registration is the only place
/// that allocates, handles themselves are `&'static` leaked atomics.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
    histograms: Mutex<BTreeMap<String, &'static LogHistogram>>,
}

impl MetricsRegistry {
    /// Registers (or finds) a counter named `name`.
    pub fn counter(&self, name: &str) -> &'static Counter {
        let mut map = self.counters.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(c) = map.get(name) {
            return c;
        }
        let c: &'static Counter = Box::leak(Box::new(Counter::new()));
        map.insert(name.to_string(), c);
        c
    }

    /// Registers (or finds) a gauge named `name`.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        let mut map = self.gauges.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(g) = map.get(name) {
            return g;
        }
        let g: &'static Gauge = Box::leak(Box::new(Gauge::new()));
        map.insert(name.to_string(), g);
        g
    }

    /// Registers (or finds) a histogram named `name`.
    pub fn histogram(&self, name: &str) -> &'static LogHistogram {
        let mut map = self.histograms.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(h) = map.get(name) {
            return h;
        }
        let h: &'static LogHistogram = Box::leak(Box::new(LogHistogram::new()));
        map.insert(name.to_string(), h);
        h
    }

    /// A point-in-time copy of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(n, c)| (n.to_string(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(n, g)| (n.to_string(), g.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(n, h)| {
                (
                    n.to_string(),
                    HistogramSnapshot {
                        count: h.count(),
                        sum: h.sum(),
                        max: h.max(),
                        mean: h.mean(),
                        buckets: h.nonzero_buckets(),
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Resets every registered metric to zero (names stay registered).
    pub fn reset(&self) {
        for c in self
            .counters
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .values()
        {
            c.reset();
        }
        for g in self
            .gauges
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .values()
        {
            g.reset();
        }
        for h in self
            .histograms
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .values()
        {
            h.reset();
        }
    }
}

/// The process-wide registry every instrumentation site reports into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn registration_and_snapshot_survive_a_poisoned_lock() {
        // Regression for the poison-recovery audit fix: a worker that
        // panics mid-registration poisons the name map, and `snapshot`
        // (called from the serve crate's stats endpoint) must not turn
        // that into a second panic on the request path. The crate's test
        // lock keeps other tests from turning the enable flag off while
        // this one counts.
        let _l = crate::tests::lock();
        let reg = Arc::new(MetricsRegistry::default());
        crate::set_enabled(true);
        reg.counter("pre.poison").inc();
        let rp = Arc::clone(&reg);
        std::thread::spawn(move || {
            let _g = rp.counters.lock().unwrap();
            panic!("poison the registry mutex");
        })
        .join()
        .unwrap_err();
        assert!(reg.counters.is_poisoned());
        reg.counter("post.poison").inc();
        let snap = reg.snapshot();
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(get("pre.poison"), Some(1));
        assert_eq!(get("post.poison"), Some(1));
        reg.reset();
        assert_eq!(reg.counter("pre.poison").get(), 0);
    }
}
