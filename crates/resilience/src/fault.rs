//! Fault injection: the seam between the resilience layer and its tests.
//!
//! Production code consults a [`FaultInjector`] at named sites
//! (`"probe.accept"`, `"probe.response"`, `"serve.accept"`,
//! `"serve.response"`); the default [`NoFaults`] injector returns
//! nothing and costs one virtual call. Tests plug in [`ScriptedFaults`],
//! which drains a deterministic per-site script — so the fault-matrix
//! suite can stage "the network truncates the second response" without
//! touching a real network.

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;
use std::time::Duration;

/// One injectable failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Close the connection without writing anything.
    DropConnection,
    /// Write only the first `keep` bytes of the payload, then close.
    TruncatePayload {
        /// Bytes of the real payload to let through.
        keep: usize,
    },
    /// Stall for the given duration before proceeding normally.
    Delay(Duration),
    /// Replace the payload with `len` deterministic garbage bytes.
    GarbageBytes {
        /// Number of garbage bytes to emit.
        len: usize,
        /// Seed of the garbage stream.
        seed: u64,
    },
    /// Refuse the connection at accept time (hang up immediately).
    RefuseAccept,
}

impl Fault {
    /// Deterministic garbage for [`Fault::GarbageBytes`] — printable-ish
    /// but never valid JSON, newline-terminated so line readers return.
    pub fn garbage(len: usize, seed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len.max(1));
        let mut x = seed | 1;
        for _ in 0..len.saturating_sub(1) {
            // xorshift64: cheap, deterministic, avoids '\n' and '{'.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let b = 0x21 + (x % 0x5d) as u8; // '!'..='}'
            out.push(if b == b'{' { b'#' } else { b });
        }
        out.push(b'\n');
        out
    }
}

/// Source of injected faults, consulted at named sites.
pub trait FaultInjector: Send + Sync {
    /// The next fault to apply at `site`, if the script has one queued.
    fn next(&self, site: &str) -> Option<Fault>;
}

/// The production injector: never faults.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    fn next(&self, _site: &str) -> Option<Fault> {
        None
    }
}

/// A deterministic, ordered fault script, keyed by site.
///
/// Faults queued for a site are returned one per [`next`] call, in
/// injection order; a site with an empty queue behaves like [`NoFaults`].
/// Every consumed fault increments the `faults.injected` telemetry
/// counter, so a test can assert its script actually fired.
///
/// [`next`]: FaultInjector::next
#[derive(Default)]
pub struct ScriptedFaults {
    script: Mutex<HashMap<String, VecDeque<Fault>>>,
}

impl ScriptedFaults {
    /// An empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues `fault` at `site` (builder style).
    pub fn inject(self, site: &str, fault: Fault) -> Self {
        self.script
            .lock()
            .unwrap()
            .entry(site.to_string())
            .or_default()
            .push_back(fault);
        self
    }

    /// Queues `fault` at `site` `n` times.
    pub fn inject_n(mut self, site: &str, fault: Fault, n: usize) -> Self {
        for _ in 0..n {
            self = self.inject(site, fault.clone());
        }
        self
    }

    /// Faults still queued across all sites.
    pub fn remaining(&self) -> usize {
        self.script
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .values()
            .map(|q| q.len())
            .sum()
    }
}

impl FaultInjector for ScriptedFaults {
    fn next(&self, site: &str) -> Option<Fault> {
        let fault = self
            .script
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get_mut(site)?
            .pop_front();
        if fault.is_some() {
            np_telemetry::counter!("faults.injected").inc();
        }
        fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_is_silent() {
        assert!(NoFaults.next("anywhere").is_none());
    }

    #[test]
    fn scripted_faults_drain_in_order_per_site() {
        let s = ScriptedFaults::new()
            .inject("a", Fault::DropConnection)
            .inject("a", Fault::RefuseAccept)
            .inject("b", Fault::Delay(Duration::from_millis(5)));
        assert_eq!(s.remaining(), 3);
        assert_eq!(s.next("a"), Some(Fault::DropConnection));
        assert_eq!(s.next("b"), Some(Fault::Delay(Duration::from_millis(5))));
        assert_eq!(s.next("a"), Some(Fault::RefuseAccept));
        assert_eq!(s.next("a"), None);
        assert_eq!(s.next("b"), None);
        assert_eq!(s.next("unknown"), None);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn inject_n_repeats() {
        let s = ScriptedFaults::new().inject_n("x", Fault::DropConnection, 3);
        assert_eq!(s.remaining(), 3);
        for _ in 0..3 {
            assert_eq!(s.next("x"), Some(Fault::DropConnection));
        }
        assert_eq!(s.next("x"), None);
    }

    #[test]
    fn garbage_is_deterministic_and_never_json() {
        let a = Fault::garbage(64, 7);
        let b = Fault::garbage(64, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        assert_eq!(*a.last().unwrap(), b'\n');
        assert!(!a.contains(&b'{'));
        assert!(a[..63].iter().all(|&c| c != b'\n'));
        assert_ne!(Fault::garbage(64, 8), a);
    }
}
