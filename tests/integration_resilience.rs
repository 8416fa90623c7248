//! Fault matrix: every scripted fault, end-to-end through the remote
//! probe round-trip. For each fault the client must either recover
//! within its retry policy (bit-identical to a clean fetch) or return a
//! typed degraded-but-usable result — never panic, and never hang past
//! the configured deadlines. Retries and injected faults must be visible
//! in a telemetry snapshot afterwards.
//!
//! Telemetry state is process-global, so the whole matrix runs inside a
//! single test function — independent #[test]s would race on the enable
//! flag and on counter values.

use np_core::memhist::probe::{FetchPolicy, ProbeServer, RemoteMemhist};
use np_core::memhist::{Memhist, MemhistConfig};
use np_resilience::{Fault, RetryPolicy, ScriptedFaults, StreamDeadlines};
use np_simulator::{MachineConfig, MachineSim};
use np_workloads::mlc::LatencyChecker;
use np_workloads::Workload;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn quiet_sim() -> MachineSim {
    let mut cfg = MachineConfig::two_socket_small();
    cfg.noise.timer_interval = 0;
    cfg.noise.dram_jitter = 0.0;
    cfg.timeslice_cycles = 5_000;
    MachineSim::new(cfg)
}

fn program() -> np_simulator::Program {
    LatencyChecker::new(0, 0, 2 << 20, 600).build(quiet_sim().config())
}

fn fast_policy() -> FetchPolicy {
    FetchPolicy {
        retry: RetryPolicy::immediate(3),
        io: StreamDeadlines::symmetric(Duration::from_secs(2)),
        ..FetchPolicy::default()
    }
}

/// Runs one faulted round-trip: a server scripted with `fault` at
/// `site`, serving `serves` connections, against a resilient fetch.
fn faulted_fetch(
    site: &str,
    fault: Fault,
    serves: usize,
) -> Result<np_core::MemhistResult, np_core::memhist::probe::ProbeError> {
    let config = MemhistConfig::default();
    let faults = Arc::new(ScriptedFaults::new().inject(site, fault));
    let listener = ProbeServer::bind().unwrap();
    let addr = listener.local_addr().unwrap();
    let server = ProbeServer::new(quiet_sim(), program()).with_faults(faults);
    let handle = std::thread::spawn(move || server.serve(&listener, serves));
    let result = RemoteMemhist::fetch_resilient(addr, &config, 9, &fast_policy());
    handle.join().unwrap().unwrap();
    result
}

#[test]
fn fault_matrix_every_fault_recovers_or_degrades_typed() {
    np_telemetry::set_enabled(true);

    // Clean reference: the probe simulator is deterministic, so a
    // recovered fetch must reproduce these bins exactly.
    let config = MemhistConfig::default();
    let reference = Memhist::new(config.clone()).measure(&quiet_sim(), &program(), 9);

    // --- the matrix ----------------------------------------------------
    // (site, fault, server connections needed, expects a retry)
    let matrix: Vec<(&str, Fault, usize, bool)> = vec![
        // Server accepts then immediately drops: client sees EOF, retries.
        ("probe.accept", Fault::RefuseAccept, 2, true),
        ("probe.accept", Fault::DropConnection, 2, true),
        // Response computed but never written: read times out / EOF.
        ("probe.response", Fault::DropConnection, 2, true),
        // Response cut mid-frame: parse fails, client retries.
        (
            "probe.response",
            Fault::TruncatePayload { keep: 20 },
            2,
            true,
        ),
        // Response replaced by deterministic garbage: parse fails.
        (
            "probe.response",
            Fault::GarbageBytes { len: 64, seed: 7 },
            2,
            true,
        ),
        // Response delayed but within the read deadline: no retry needed.
        (
            "probe.response",
            Fault::Delay(Duration::from_millis(50)),
            1,
            false,
        ),
    ];

    for (site, fault, serves, expects_retry) in matrix {
        let label = format!("{site} / {fault:?}");
        let retries_before = np_telemetry::global().counter("resilience.retries").get();
        let start = Instant::now();
        let got = faulted_fetch(site, fault, serves)
            .unwrap_or_else(|e| panic!("{label}: fetch failed outright: {e}"));
        let elapsed = start.elapsed();

        // Never hangs past the policy envelope: 3 attempts × 2 s deadline
        // plus slack is a generous ceiling; a wedged read would blow it.
        assert!(
            elapsed < Duration::from_secs(10),
            "{label}: took {elapsed:?}"
        );

        // Full recovery: deterministic, so bins are bit-identical.
        assert!(!got.degraded, "{label}: unexpectedly degraded");
        assert!(got.missing_intervals.is_empty(), "{label}");
        assert_eq!(
            got.histogram.bins.len(),
            reference.histogram.bins.len(),
            "{label}"
        );
        for (g, r) in got.histogram.bins.iter().zip(&reference.histogram.bins) {
            assert_eq!(g.count, r.count, "{label}: bin [{}, {})", g.lo, g.hi);
        }

        let retried = np_telemetry::global().counter("resilience.retries").get() > retries_before;
        assert_eq!(retried, expects_retry, "{label}: retried = {retried}");
    }

    // --- exhaustion: a fault burst outlasting the retry budget ---------
    // No server at all: every attempt fails to connect. The client must
    // return a typed error (not panic, not hang).
    let dead_addr = {
        let l = ProbeServer::bind().unwrap();
        l.local_addr().unwrap() // listener dropped: connections refused
    };
    let start = Instant::now();
    let err = RemoteMemhist::fetch_resilient(dead_addr, &config, 9, &fast_policy()).unwrap_err();
    assert!(start.elapsed() < Duration::from_secs(10));
    let msg = err.to_string();
    assert!(msg.contains("probe chunks failed"), "{msg}");

    // --- telemetry visibility ------------------------------------------
    let snap = np_telemetry::global().snapshot();
    let counter = |name: &str| -> u64 {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert!(counter("resilience.retries") > 0, "retries not in snapshot");
    assert!(counter("faults.injected") >= 6, "faults not in snapshot");
    assert!(counter("probe.fetch.chunks") > 0);
}
