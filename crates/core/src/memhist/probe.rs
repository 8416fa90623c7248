//! The Memhist remote probe (Fig. 6), hardened.
//!
//! "Server platforms do not always provide all options for a rich
//! graphical interface. Because of this, an additional headless probe was
//! developed, which transfers the measured data via TCP to the GUI
//! application." The probe lives next to the testee (here: next to the
//! simulator), performs the threshold-cycled measurement on request, and
//! ships the per-threshold counts back; the front-end assembles the
//! histogram locally — exactly the split of the paper's
//! `Probe.Measure(...)` / `Backend.EventFor(Interval)` architecture.
//!
//! Wire format: newline-delimited JSON over TCP.
//!
//! Both ends are defended through np-resilience:
//!
//! * the **server** pins 5 s read/write deadlines on every connection,
//!   bounds a request frame to 64 KiB (a hostile client cannot OOM it),
//!   validates the threshold ladder before touching the simulator, and
//!   consults a [`FaultInjector`] at the `"probe.accept"` /
//!   `"probe.response"` sites so the fault matrix can script drops,
//!   truncations, delays and garbage;
//! * the **client** ([`RemoteMemhist::fetch_resilient`], its one fetch
//!   path) retries per [`RetryPolicy`] with reconnect-and-backoff,
//!   bounds each attempt with stream deadlines, rejects any reply whose
//!   ladder differs from the request's, optionally shards the threshold
//!   ladder into per-request chunks, and degrades partially: a fetch
//!   that loses k of n chunks returns a coarser histogram flagged
//!   [`MemhistResult::degraded`] with the missing intervals enumerated,
//!   instead of failing the whole campaign.
//!   Exceedance counts compose across requests because the simulated run
//!   is deterministic per seed, so surviving thresholds still subtract
//!   into valid bins.

use super::{MemhistConfig, MemhistResult};
use np_resilience::{
    read_line_bounded, Fault, FaultInjector, NoFaults, RetryPolicy, StreamDeadlines,
};
use np_simulator::{MachineSim, Program};
use np_stats::histogram::LatencyHistogram;
use serde::{Deserialize, Serialize};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// A measurement request from the front-end.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProbeRequest {
    /// Seed for the simulated run.
    pub seed: u64,
    /// Threshold ladder to cycle.
    pub thresholds: Vec<u64>,
    /// Timeslices per threshold step.
    pub slices_per_step: u32,
}

/// The probe's answer: raw per-threshold exceedance estimates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProbeResponse {
    /// Echo of the thresholds measured.
    pub thresholds: Vec<u64>,
    /// Scaled exceedance counts, one per threshold.
    pub counts: Vec<i64>,
    /// Slices each threshold was active.
    pub coverage: Vec<u64>,
    /// Total slices observed.
    pub total_slices: u64,
}

/// Largest request frame the server accepts, newline included. Larger
/// frames fail with `InvalidData` after reading at most this many bytes.
const MAX_FRAME_BYTES: usize = 64 * 1024;

/// Largest threshold ladder a request may carry.
const MAX_THRESHOLDS: usize = 1024;

/// Read/write deadline pinned on every accepted connection.
const IO_DEADLINE: Duration = Duration::from_secs(5);

/// The headless probe: owns the simulator and testee program.
pub struct ProbeServer {
    sim: MachineSim,
    program: Program,
    faults: Arc<dyn FaultInjector>,
}

impl ProbeServer {
    /// Creates a probe for one testee with no faults.
    pub fn new(sim: MachineSim, program: Program) -> Self {
        ProbeServer {
            sim,
            program,
            faults: Arc::new(NoFaults),
        }
    }

    /// Plugs in a fault injector (tests, chaos drills).
    pub fn with_faults(mut self, faults: Arc<dyn FaultInjector>) -> Self {
        self.faults = faults;
        self
    }

    /// Binds an ephemeral localhost port; returns the listener so the
    /// caller learns the address before serving.
    pub fn bind() -> std::io::Result<TcpListener> {
        TcpListener::bind("127.0.0.1:0")
    }

    /// Serves exactly `n` connections on `listener`, then returns.
    ///
    /// Per-connection failures (malformed JSON, oversized frames, timed-
    /// out or mid-request-dropped connections) are recorded in the
    /// `probe.errors` counter and do **not** kill the accept loop — a
    /// probe next to a long campaign must survive a misbehaving client.
    /// Only listener-level failures propagate.
    pub fn serve(&self, listener: &TcpListener, n: usize) -> std::io::Result<()> {
        for _ in 0..n {
            let (stream, _) = listener.accept()?;
            match self.faults.next("probe.accept") {
                Some(Fault::RefuseAccept) | Some(Fault::DropConnection) => {
                    np_telemetry::counter!("probe.faults.refused").inc();
                    drop(stream);
                    continue;
                }
                Some(Fault::Delay(d)) => std::thread::sleep(d),
                _ => {}
            }
            if self.handle(stream).is_err() {
                np_telemetry::counter!("probe.errors").inc();
            }
        }
        Ok(())
    }

    fn handle(&self, stream: TcpStream) -> std::io::Result<()> {
        let _span = np_telemetry::span!("probe.request", "probe");
        StreamDeadlines::symmetric(IO_DEADLINE).apply(&stream)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let line = read_line_bounded(&mut reader, MAX_FRAME_BYTES)?;
        np_telemetry::counter!("probe.rx_bytes").add(line.len() as u64);
        let req: ProbeRequest = serde_json::from_str(line.trim())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        self.validate(&req)?;

        let mut pebs =
            np_counters::pebs::CyclingPebs::new(req.thresholds.clone(), req.slices_per_step);
        self.sim
            .run_observed(&self.program, req.seed, &mut pebs)
            .map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("invalid probe program: {e}"),
                )
            })?;

        let resp = ProbeResponse {
            thresholds: req.thresholds,
            counts: pebs.estimated_exceed_counts(),
            coverage: pebs.coverage().to_vec(),
            total_slices: pebs.total_slices(),
        };
        let mut out = serde_json::to_string(&resp)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        out.push('\n');
        let mut payload = out.into_bytes();
        match self.faults.next("probe.response") {
            Some(Fault::DropConnection) | Some(Fault::RefuseAccept) => {
                np_telemetry::counter!("probe.faults.dropped").inc();
                return Ok(());
            }
            Some(Fault::TruncatePayload { keep }) => {
                np_telemetry::counter!("probe.faults.truncated").inc();
                payload.truncate(keep);
            }
            Some(Fault::GarbageBytes { len, seed }) => {
                np_telemetry::counter!("probe.faults.garbage").inc();
                payload = Fault::garbage(len, seed);
            }
            Some(Fault::Delay(d)) => {
                np_telemetry::counter!("probe.faults.delayed").inc();
                std::thread::sleep(d);
            }
            None => {}
        }
        let mut stream = stream;
        stream.write_all(&payload)?;
        stream.flush()?;
        np_telemetry::counter!("probe.tx_bytes").add(payload.len() as u64);
        np_telemetry::counter!("probe.requests").inc();
        Ok(())
    }

    /// Rejects requests the measurement layer would panic on — the server
    /// must stay up no matter what arrives on the wire.
    fn validate(&self, req: &ProbeRequest) -> std::io::Result<()> {
        let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        if req.thresholds.is_empty() {
            return Err(bad("request carries no thresholds".into()));
        }
        if req.thresholds.len() > MAX_THRESHOLDS {
            return Err(bad(format!(
                "request carries {} thresholds (limit {MAX_THRESHOLDS})",
                req.thresholds.len()
            )));
        }
        if req.thresholds.windows(2).any(|w| w[0] >= w[1]) {
            return Err(bad("thresholds must strictly ascend".into()));
        }
        Ok(())
    }
}

/// Client-side fetch policy: how hard to try, how long to wait, and how
/// finely to shard the ladder.
#[derive(Debug, Clone)]
pub struct FetchPolicy {
    /// Reconnect-with-backoff schedule per chunk.
    pub retry: RetryPolicy,
    /// Read/write deadlines pinned on every connection (the read deadline
    /// doubles as the connect timeout).
    pub io: StreamDeadlines,
    /// Thresholds per request; `0` sends the whole ladder in one request.
    /// Sharding trades extra (deterministic, same-seed) probe runs for
    /// partial-result degradation when the link is unreliable.
    pub chunk_thresholds: usize,
    /// Largest response frame accepted.
    pub max_frame_bytes: usize,
}

impl Default for FetchPolicy {
    fn default() -> Self {
        FetchPolicy {
            retry: RetryPolicy::new(3),
            io: StreamDeadlines::symmetric(Duration::from_secs(5)),
            chunk_thresholds: 0,
            max_frame_bytes: 1024 * 1024,
        }
    }
}

/// Why a resilient fetch failed outright (partial losses degrade instead).
#[derive(Debug)]
pub enum ProbeError {
    /// Every chunk exhausted its retry policy; no usable data came back.
    Exhausted {
        /// Chunks attempted.
        chunks: usize,
        /// The last chunk's terminal error.
        last: String,
    },
    /// The address did not resolve or the response was structurally
    /// unusable even though transport succeeded.
    BadResponse(String),
}

impl std::fmt::Display for ProbeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbeError::Exhausted { chunks, last } => {
                write!(f, "all {chunks} probe chunks failed; last error: {last}")
            }
            ProbeError::BadResponse(msg) => write!(f, "unusable probe response: {msg}"),
        }
    }
}

impl std::error::Error for ProbeError {}

/// Front-end client: requests a measurement and assembles the histogram.
pub struct RemoteMemhist;

impl RemoteMemhist {
    /// Fetches one measurement from the probe at `addr` with retry,
    /// deadlines and optional chunking. Every reply must echo the
    /// requested ladder, or the attempt fails and is retried.
    ///
    /// Chunks that exhaust the retry policy are *dropped from the ladder*
    /// rather than failing the fetch: the result is assembled from the
    /// surviving thresholds (exceedance counts compose across same-seed
    /// runs), flagged [`MemhistResult::degraded`], and the lost intervals
    /// are enumerated in [`MemhistResult::missing_intervals`]. Only a
    /// fetch that loses *every* chunk errors.
    pub fn fetch_resilient(
        addr: impl ToSocketAddrs,
        config: &MemhistConfig,
        seed: u64,
        policy: &FetchPolicy,
    ) -> Result<MemhistResult, ProbeError> {
        let _span = np_telemetry::span!("probe.fetch_resilient", "probe");
        let addr = resolve(&addr).map_err(|e| ProbeError::BadResponse(e.to_string()))?;
        let chunk = if policy.chunk_thresholds == 0 {
            config.thresholds.len().max(1)
        } else {
            policy.chunk_thresholds
        };
        let chunks: Vec<&[u64]> = config.thresholds.chunks(chunk).collect();
        np_telemetry::counter!("probe.fetch.chunks").add(chunks.len() as u64);

        let mut surviving: Vec<(u64, i64, u64)> = Vec::new(); // (threshold, count, coverage)
        let mut total_slices = 0u64;
        let mut lost: Vec<u64> = Vec::new();
        let mut last_err = String::new();
        for thresholds in &chunks {
            let req = ProbeRequest {
                seed,
                thresholds: thresholds.to_vec(),
                slices_per_step: config.slices_per_step,
            };
            let outcome = policy.retry.run(
                |_| {
                    roundtrip(&addr, &req, policy.io, policy.max_frame_bytes).and_then(|resp| {
                        if resp.thresholds == req.thresholds
                            && resp.counts.len() == req.thresholds.len()
                            && resp.coverage.len() == req.thresholds.len()
                        {
                            Ok(resp)
                        } else {
                            Err(std::io::Error::new(
                                std::io::ErrorKind::InvalidData,
                                "response does not match the request's ladder",
                            ))
                        }
                    })
                },
                // Everything on this path is transient: connection drops,
                // timeouts, truncated/garbage frames — a fresh connection
                // may well succeed.
                |_| true,
            );
            match outcome {
                Ok(resp) => {
                    for ((&t, &c), &cov) in
                        resp.thresholds.iter().zip(&resp.counts).zip(&resp.coverage)
                    {
                        surviving.push((t, c, cov));
                    }
                    total_slices = total_slices.max(resp.total_slices);
                }
                Err(e) => {
                    np_telemetry::counter!("probe.fetch.chunks_lost").inc();
                    last_err = e.to_string();
                    lost.extend_from_slice(thresholds);
                }
            }
        }

        if surviving.is_empty() {
            return Err(ProbeError::Exhausted {
                chunks: chunks.len(),
                last: last_err,
            });
        }

        let thresholds: Vec<u64> = surviving.iter().map(|&(t, _, _)| t).collect();
        let counts: Vec<i64> = surviving.iter().map(|&(_, c, _)| c).collect();
        let coverage: Vec<u64> = surviving.iter().map(|&(_, _, cov)| cov).collect();
        let histogram = LatencyHistogram::from_threshold_counts(&thresholds, &counts)
            .ok_or_else(|| ProbeError::BadResponse("surviving ladder unusable".into()))?;
        let missing_intervals = missing_intervals(&config.thresholds, &lost);
        let mut result = MemhistResult::complete(histogram, coverage, total_slices);
        if !missing_intervals.is_empty() {
            np_telemetry::counter!("probe.fetch.degraded").inc();
            result.degraded = true;
            result.missing_intervals = missing_intervals;
        }
        Ok(result)
    }
}

/// The `[lo, hi)` ladder intervals whose lower threshold was lost.
fn missing_intervals(ladder: &[u64], lost: &[u64]) -> Vec<(u64, u64)> {
    ladder
        .iter()
        .enumerate()
        .filter(|(_, t)| lost.contains(t))
        .map(|(i, &t)| (t, ladder.get(i + 1).copied().unwrap_or(u64::MAX)))
        .collect()
}

fn resolve(addr: impl ToSocketAddrs) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "address resolved to nothing",
        )
    })
}

/// One connect → request → response exchange under the given deadlines.
fn roundtrip(
    addr: &SocketAddr,
    req: &ProbeRequest,
    io: StreamDeadlines,
    max_frame_bytes: usize,
) -> std::io::Result<ProbeResponse> {
    let stream = match io.read {
        Some(t) => TcpStream::connect_timeout(addr, t)?,
        None => TcpStream::connect(addr)?,
    };
    io.apply(&stream)?;
    let mut out = serde_json::to_string(req)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    out.push('\n');
    let mut writer = stream.try_clone()?;
    writer.write_all(out.as_bytes())?;
    writer.flush()?;

    let mut reader = BufReader::new(stream);
    let line = read_line_bounded(&mut reader, max_frame_bytes)?;
    serde_json::from_str(line.trim())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memhist::Memhist;
    use np_resilience::ScriptedFaults;
    use np_simulator::MachineConfig;
    use np_workloads::mlc::LatencyChecker;
    use np_workloads::Workload;

    fn quiet_sim() -> MachineSim {
        let mut cfg = MachineConfig::two_socket_small();
        cfg.noise.timer_interval = 0;
        cfg.noise.dram_jitter = 0.0;
        cfg.timeslice_cycles = 5_000;
        MachineSim::new(cfg)
    }

    fn fast_policy() -> FetchPolicy {
        FetchPolicy {
            retry: RetryPolicy::immediate(3),
            io: StreamDeadlines::symmetric(Duration::from_secs(2)),
            ..FetchPolicy::default()
        }
    }

    /// One unchunked fetch of the default ladder under [`fast_policy`].
    fn fetch(addr: SocketAddr, seed: u64) -> Result<MemhistResult, ProbeError> {
        RemoteMemhist::fetch_resilient(addr, &MemhistConfig::default(), seed, &fast_policy())
    }

    #[test]
    fn remote_measurement_matches_local() {
        let sim = quiet_sim();
        let program = LatencyChecker::new(0, 0, 4 << 20, 1500).build(sim.config());
        let config = MemhistConfig::default();

        // Local reference.
        let local = Memhist::new(config.clone()).measure(&sim, &program, 5);

        // Remote probe in a background thread.
        let listener = ProbeServer::bind().unwrap();
        let addr = listener.local_addr().unwrap();
        let server = ProbeServer::new(quiet_sim(), program);
        let handle = std::thread::spawn(move || server.serve(&listener, 1));

        let remote = fetch(addr, 5).unwrap();
        handle.join().unwrap().unwrap();

        // Same deterministic run ⇒ identical bins.
        assert_eq!(remote.histogram.bins.len(), local.histogram.bins.len());
        for (r, l) in remote.histogram.bins.iter().zip(&local.histogram.bins) {
            assert_eq!(r.count, l.count, "bin [{}, {})", r.lo, r.hi);
        }
        assert_eq!(remote.total_slices, local.total_slices);
        assert!(!remote.degraded);
        assert!(remote.missing_intervals.is_empty());
    }

    #[test]
    fn serves_multiple_sequential_requests() {
        let sim = quiet_sim();
        let program = LatencyChecker::new(0, 0, 2 << 20, 400).build(sim.config());
        let config = MemhistConfig::default();

        let listener = ProbeServer::bind().unwrap();
        let addr = listener.local_addr().unwrap();
        let server = ProbeServer::new(quiet_sim(), program);
        let handle = std::thread::spawn(move || server.serve(&listener, 2));

        let a = fetch(addr, 1).unwrap();
        let b = fetch(addr, 2).unwrap();
        handle.join().unwrap().unwrap();
        // Different seeds may differ, but both are well-formed.
        assert_eq!(a.histogram.bins.len(), config.thresholds.len());
        assert_eq!(b.histogram.bins.len(), config.thresholds.len());
    }

    #[test]
    fn client_reports_connection_failure() {
        // Bind-then-drop guarantees a port with no listener.
        let addr = {
            let l = ProbeServer::bind().unwrap();
            l.local_addr().unwrap()
        };
        let err = fetch(addr, 1);
        assert!(err.is_err());
    }

    #[test]
    fn server_survives_malformed_requests() {
        use std::io::{Read, Write};
        let sim = quiet_sim();
        let program = LatencyChecker::new(0, 0, 1 << 20, 50).build(sim.config());
        let listener = ProbeServer::bind().unwrap();
        let addr = listener.local_addr().unwrap();
        let server = ProbeServer::new(quiet_sim(), program);
        let errors = np_telemetry::global().counter("probe.errors");
        let errors_before = errors.get();
        np_telemetry::set_enabled(true);
        // Two connections: garbage, then a real request.
        let handle = std::thread::spawn(move || server.serve(&listener, 2));

        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.write_all(b"this is not json\n").unwrap();
        stream.flush().unwrap();
        // Server hangs up on the bad connection without a response...
        let mut buf = String::new();
        let _ = stream.read_to_string(&mut buf);
        assert!(buf.is_empty());
        drop(stream);

        // ...but the accept loop survives and serves the next client.
        let good = fetch(addr, 3).unwrap();
        assert!(!good.histogram.bins.is_empty());
        assert!(handle.join().unwrap().is_ok());
        assert!(
            errors.get() > errors_before,
            "malformed request not counted"
        );
    }

    #[test]
    fn oversized_request_is_bounded_and_survived() {
        use std::io::{Read, Write};
        let sim = quiet_sim();
        let program = LatencyChecker::new(0, 0, 1 << 20, 50).build(sim.config());
        let listener = ProbeServer::bind().unwrap();
        let addr = listener.local_addr().unwrap();
        let server = ProbeServer::new(quiet_sim(), program);
        let handle = std::thread::spawn(move || server.serve(&listener, 2));

        // A newline-free flood far beyond the frame limit: the server must
        // cut the connection after MAX_FRAME_BYTES, not buffer it all.
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let flood = vec![b'a'; 16 * MAX_FRAME_BYTES];
        // The server may hang up mid-write; that is success, not failure.
        let _ = stream.write_all(&flood);
        let _ = stream.flush();
        let mut buf = String::new();
        let _ = stream.read_to_string(&mut buf);
        assert!(buf.is_empty(), "oversized request must get no response");
        drop(stream);

        // The accept loop survives and serves a well-formed client.
        let good = fetch(addr, 3).unwrap();
        assert!(!good.histogram.bins.is_empty());
        assert!(handle.join().unwrap().is_ok());
    }

    #[test]
    fn invalid_ladders_are_rejected_not_panicked() {
        use std::io::Read;
        use std::io::Write as _;
        let sim = quiet_sim();
        let program = LatencyChecker::new(0, 0, 1 << 20, 50).build(sim.config());
        let listener = ProbeServer::bind().unwrap();
        let addr = listener.local_addr().unwrap();
        let server = ProbeServer::new(quiet_sim(), program);
        let handle = std::thread::spawn(move || server.serve(&listener, 3));

        // Empty ladder and a descending ladder would both panic
        // CyclingPebs::new if they reached it.
        for bad in [
            r#"{"seed":1,"thresholds":[],"slices_per_step":1}"#,
            r#"{"seed":1,"thresholds":[64,4],"slices_per_step":1}"#,
        ] {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            writeln!(stream, "{bad}").unwrap();
            let mut buf = String::new();
            let _ = stream.read_to_string(&mut buf);
            assert!(buf.is_empty(), "invalid ladder must get no response");
        }

        let good = fetch(addr, 3).unwrap();
        assert!(!good.histogram.bins.is_empty());
        assert!(handle.join().unwrap().is_ok());
    }

    #[test]
    fn chunked_fetch_composes_to_the_same_histogram() {
        let sim = quiet_sim();
        let program = LatencyChecker::new(0, 0, 2 << 20, 600).build(sim.config());
        let config = MemhistConfig::default();
        let listener = ProbeServer::bind().unwrap();
        let addr = listener.local_addr().unwrap();
        let server = ProbeServer::new(quiet_sim(), program);
        let n_chunks = config.thresholds.len().div_ceil(4);
        let handle = std::thread::spawn(move || server.serve(&listener, n_chunks + 1));

        let whole = fetch(addr, 4).unwrap();
        let chunked = RemoteMemhist::fetch_resilient(
            addr,
            &config,
            4,
            &FetchPolicy {
                chunk_thresholds: 4,
                ..fast_policy()
            },
        )
        .unwrap();
        handle.join().unwrap().unwrap();
        assert!(!chunked.degraded);
        assert_eq!(chunked.histogram.bins.len(), whole.histogram.bins.len());
        // Chunked requests cycle each sub-ladder on its own schedule, so
        // the scaled estimates differ slightly from the whole-ladder run;
        // the assembled histograms must still agree in aggregate.
        let tc = chunked.histogram.total_count() as f64;
        let tw = whole.histogram.total_count() as f64;
        assert!(
            (tc - tw).abs() / tw < 0.35,
            "chunked total {tc} vs whole total {tw}"
        );
    }

    #[test]
    fn fetch_recovers_from_a_dropped_connection() {
        let sim = quiet_sim();
        let program = LatencyChecker::new(0, 0, 2 << 20, 400).build(sim.config());
        let config = MemhistConfig::default();
        let listener = ProbeServer::bind().unwrap();
        let addr = listener.local_addr().unwrap();
        let faults =
            Arc::new(ScriptedFaults::new().inject("probe.response", Fault::DropConnection));
        let server = ProbeServer::new(quiet_sim(), program).with_faults(faults);
        // Connection 1 is dropped mid-response, connection 2 succeeds.
        let handle = std::thread::spawn(move || server.serve(&listener, 2));

        let result = RemoteMemhist::fetch_resilient(addr, &config, 4, &fast_policy()).unwrap();
        handle.join().unwrap().unwrap();
        assert!(!result.degraded, "retry must recover, not degrade");
        assert_eq!(result.histogram.bins.len(), config.thresholds.len());
    }

    #[test]
    fn lost_chunks_degrade_with_enumerated_intervals() {
        let sim = quiet_sim();
        let program = LatencyChecker::new(0, 0, 2 << 20, 400).build(sim.config());
        let config = MemhistConfig {
            thresholds: vec![1, 64, 256, 420],
            slices_per_step: 1,
        };
        let listener = ProbeServer::bind().unwrap();
        let addr = listener.local_addr().unwrap();
        // Chunk 1 ([1]) is dropped on both attempts; chunks 2–4 are clean.
        let faults =
            Arc::new(ScriptedFaults::new().inject_n("probe.response", Fault::DropConnection, 2));
        let server = ProbeServer::new(quiet_sim(), program).with_faults(faults);
        let handle = std::thread::spawn(move || server.serve(&listener, 5));

        let policy = FetchPolicy {
            retry: RetryPolicy::immediate(2),
            chunk_thresholds: 1,
            ..fast_policy()
        };
        let result = RemoteMemhist::fetch_resilient(addr, &config, 4, &policy).unwrap();
        handle.join().unwrap().unwrap();
        assert!(result.degraded);
        assert_eq!(result.missing_intervals, vec![(1, 64)]);
        // The surviving ladder still subtracts into valid bins.
        assert_eq!(result.histogram.bins.len(), 3);
        assert_eq!(result.histogram.bins[0].lo, 64);
    }

    #[test]
    fn request_roundtrips_as_json() {
        let req = ProbeRequest {
            seed: 7,
            thresholds: vec![4, 64],
            slices_per_step: 2,
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: ProbeRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back.seed, 7);
        assert_eq!(back.thresholds, vec![4, 64]);
    }
}
