//! Fault matrix for the indicator exchange: every scripted fault,
//! end-to-end through a live `np serve` round-trip. For each fault the
//! resilient client must either recover within its retry policy
//! (bit-identical to a clean exchange — the store snapshot is
//! deterministic) or return a typed error — never panic, never hang past
//! the configured deadlines. Degraded response frames must be flagged on
//! the wire and counted in telemetry.
//!
//! Telemetry state is process-global, so the whole matrix runs inside a
//! single test function — independent #[test]s would race on the enable
//! flag and on counter values.

use np_resilience::{Fault, RetryPolicy, ScriptedFaults, StreamDeadlines};
use np_serve::client::{ClientError, ClientLimits, ExchangeClient};
use np_serve::proto::{
    IndicatorKey, IndicatorSet, PredictReq, QueryReq, Request, RequestFrame, Response,
    ResponseFrame,
};
use np_serve::server::ExchangeServer;
use np_simulator::HwEvent;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MACHINE: &str = "dl580";
const SETS: u64 = 6;

fn seed_set(param: u64) -> IndicatorSet {
    let mut indicators = BTreeMap::new();
    indicators.insert(HwEvent::L1dMiss, param as f64);
    indicators.insert(HwEvent::L3Miss, (param * 2) as f64);
    IndicatorSet {
        key: IndicatorKey {
            machine: MACHINE.to_string(),
            program: "stream".to_string(),
            param,
        },
        seed: param,
        cycles: 100.0 + 3.0 * param as f64,
        indicators,
        memhist: None,
        phases: None,
    }
}

fn fast_client(addr: std::net::SocketAddr) -> ExchangeClient {
    ExchangeClient::new(addr.to_string())
        .with_retry(RetryPolicy::immediate(3))
        .with_limits(ClientLimits {
            io: StreamDeadlines::symmetric(Duration::from_secs(2)),
            ..ClientLimits::default()
        })
}

/// One faulted exchange: a server scripted with `fault` at `site`,
/// serving `serves` connections, against the resilient client running
/// a query + stats frame.
fn faulted_exchange(
    site: &str,
    fault: Fault,
    serves: usize,
) -> Result<np_serve::proto::ResponseFrame, ClientError> {
    let faults = Arc::new(ScriptedFaults::new().inject(site, fault));
    let listener = ExchangeServer::bind().unwrap();
    let addr = listener.local_addr().unwrap();
    let server = ExchangeServer::new(4, 16).with_faults(faults);
    for param in 0..SETS {
        server.store().put(seed_set(param));
    }
    let handle = std::thread::spawn(move || server.serve(&listener, serves));
    let frame = RequestFrame::new(vec![
        Request::Query(QueryReq::machine(MACHINE)),
        Request::Stats,
    ]);
    let result = fast_client(addr).exchange(&frame);
    handle.join().unwrap().unwrap();
    result
}

#[test]
fn fault_matrix_every_fault_recovers_or_errors_typed() {
    np_telemetry::set_enabled(true);

    // --- the matrix ----------------------------------------------------
    // (site, fault, server connections needed, expects a retry)
    let matrix: Vec<(&str, Fault, usize, bool)> = vec![
        // Connection refused / dropped at accept: EOF on read, retry.
        ("serve.accept", Fault::RefuseAccept, 2, true),
        ("serve.accept", Fault::DropConnection, 2, true),
        // Response computed but never written: EOF, retry.
        ("serve.response", Fault::DropConnection, 2, true),
        // Response cut mid-frame: no newline arrives, EOF, retry.
        (
            "serve.response",
            Fault::TruncatePayload { keep: 10 },
            2,
            true,
        ),
        // Response replaced by deterministic garbage: parse fails, retry.
        (
            "serve.response",
            Fault::GarbageBytes { len: 64, seed: 7 },
            2,
            true,
        ),
        // Response delayed but within the read deadline: no retry needed.
        (
            "serve.response",
            Fault::Delay(Duration::from_millis(50)),
            1,
            false,
        ),
    ];

    for (site, fault, serves, expects_retry) in matrix {
        let label = format!("{site} / {fault:?}");
        let retries_before = np_telemetry::global().counter("serve.client.retries").get();
        let start = Instant::now();
        let got = faulted_exchange(site, fault, serves)
            .unwrap_or_else(|e| panic!("{label}: exchange failed outright: {e}"));
        let elapsed = start.elapsed();

        // Never hangs past the policy envelope: 3 attempts × 2 s deadline
        // plus slack is a generous ceiling; a wedged read would blow it.
        assert!(
            elapsed < Duration::from_secs(10),
            "{label}: took {elapsed:?}"
        );

        // Full recovery: the store snapshot is deterministic, so the
        // response must be bit-identical to a clean exchange.
        assert!(!got.degraded, "{label}: unexpectedly degraded");
        assert_eq!(got.responses.len(), 2, "{label}");
        match &got.responses[0] {
            Response::Sets(s) => {
                assert_eq!(s.sets.len(), SETS as usize, "{label}");
                for (i, set) in s.sets.iter().enumerate() {
                    assert_eq!(*set, seed_set(i as u64), "{label}: set {i}");
                }
            }
            other => panic!("{label}: query answered with {other:?}"),
        }
        match &got.responses[1] {
            Response::Stats(s) => assert_eq!(s.sets, SETS, "{label}"),
            other => panic!("{label}: stats answered with {other:?}"),
        }

        let retried = np_telemetry::global().counter("serve.client.retries").get() > retries_before;
        assert_eq!(retried, expects_retry, "{label}: retried = {retried}");
    }

    // --- degraded frames: flagged on the wire, counted in telemetry ----
    // A predict for an unknown source set is a *per-request* error: the
    // frame comes back degraded (not a dead connection), the client
    // surfaces it as a typed Server error without retrying, and the
    // degraded-frame counter moves.
    let degraded_before = np_telemetry::global()
        .counter("serve.client.degraded")
        .get();
    let listener = ExchangeServer::bind().unwrap();
    let addr = listener.local_addr().unwrap();
    let server = ExchangeServer::new(4, 16);
    for param in 0..SETS {
        server.store().put(seed_set(param));
    }
    let handle = std::thread::spawn(move || server.serve(&listener, 1));
    let client = fast_client(addr);
    let retries_before = np_telemetry::global().counter("serve.client.retries").get();
    let err = client
        .predict(PredictReq {
            source: IndicatorKey {
                machine: "nowhere".to_string(),
                program: "stream".to_string(),
                param: 0,
            },
            target_machine: MACHINE.to_string(),
        })
        .unwrap_err();
    assert!(
        matches!(&err, ClientError::Server(e) if e.contains("unknown source")),
        "{err}"
    );
    assert_eq!(
        np_telemetry::global().counter("serve.client.retries").get(),
        retries_before,
        "server errors are deterministic and must not be retried"
    );
    handle.join().unwrap().unwrap();
    assert!(
        np_telemetry::global()
            .counter("serve.client.degraded")
            .get()
            > degraded_before,
        "degraded frame not counted"
    );

    // --- exhaustion: no server at all ----------------------------------
    // Every attempt fails to connect; the client must return a typed
    // error (not panic, not hang).
    let dead_addr = {
        let l = ExchangeServer::bind().unwrap();
        l.local_addr().unwrap() // listener dropped: connections refused
    };
    let start = Instant::now();
    let err = fast_client(dead_addr).stats().unwrap_err();
    assert!(start.elapsed() < Duration::from_secs(10));
    assert!(
        matches!(&err, ClientError::Io(e) if e.contains("gave up after 3 attempts")),
        "{err}"
    );

    // --- telemetry visibility ------------------------------------------
    let snap = np_telemetry::global().snapshot();
    let counter = |name: &str| -> u64 {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert!(counter("faults.injected") >= 6, "faults not in snapshot");
    assert!(counter("serve.client.retries") > 0, "retries not counted");
    assert!(counter("serve.client.degraded") > 0);
    assert!(counter("serve.faults.refused") >= 2, "accept faults");
    assert!(counter("serve.faults.dropped") >= 1, "dropped responses");
    assert!(counter("serve.faults.truncated") >= 1);
    assert!(counter("serve.faults.garbage") >= 1);
    assert!(counter("serve.faults.delayed") >= 1);
    assert!(counter("serve.frames") > 0, "served frames not counted");
    assert!(counter("serve.queries") > 0);
    assert!(counter("serve.predicts") > 0);
}

/// A frame of nothing but `[` nests far past what a thread stack holds
/// when parsed by plain recursion. Well inside the frame limit, it must
/// earn a typed error frame, and the same connection must then be served
/// normally. It neither toggles nor reads telemetry, so it can run beside
/// the matrix above.
#[test]
fn nested_bracket_frame_gets_a_typed_error_and_the_server_lives_on() {
    let server = ExchangeServer::new(4, 16).with_workers(1);
    for param in 0..SETS {
        server.store().put(seed_set(param));
    }
    let handle = server.start(ExchangeServer::bind().unwrap()).unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut exchange = move |line: String| -> ResponseFrame {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        serde_json::from_str(reply.trim()).unwrap()
    };

    let hostile = exchange("[".repeat(64 * 1024));
    assert!(hostile.degraded);
    assert!(
        matches!(&hostile.responses[..], [Response::Error(e)]
            if e.contains("malformed frame") && e.contains("nesting")),
        "{:?}",
        hostile.responses
    );

    let frame = RequestFrame::new(vec![Request::Query(QueryReq::machine(MACHINE))]);
    let normal = exchange(serde_json::to_string(&frame).unwrap());
    assert!(!normal.degraded);
    assert!(
        matches!(&normal.responses[..], [Response::Sets(s)] if s.sets.len() == SETS as usize),
        "{:?}",
        normal.responses
    );

    drop(exchange); // closes the connection, freeing the only worker
    handle.stop();
}
