//! End-to-end exchange test: a live server, typed clients, and the
//! seeded loadgen driver. Telemetry is process-global, so everything
//! runs inside one test function (mirroring `integration_resilience.rs`).

use np_serve::loadgen::{self, LoadgenConfig};
use np_serve::proto::{IndicatorKey, PredictReq, QueryReq, MAX_REPLY_LINE_BYTES};
use np_serve::server::ExchangeServer;
use np_serve::{ClientError, ExchangeClient};

#[test]
fn live_server_roundtrip_and_loadgen() {
    let server = ExchangeServer::new(8, 64).with_workers(4);
    let store = server.store();
    let cache = server.cache();
    let listener = ExchangeServer::bind().expect("bind");
    let handle = server.start(listener).expect("start");
    let addr = handle.addr().to_string();

    // The full benchmark: seed, cold/warm predict, audit, 8-way hammer.
    let summary = loadgen::run(&LoadgenConfig {
        addr: addr.clone(),
        clients: 8,
        frames_per_client: 12,
        seed: 77,
    })
    .expect("loadgen run");

    assert_eq!(summary.errors, 0, "protocol errors: {summary:?}");
    assert!(summary.transfer_consistent, "audit failed: {summary:?}");
    assert!(
        summary.transfer_rel_diff < 1e-9,
        "rel diff {}",
        summary.transfer_rel_diff
    );
    assert!(summary.cache_hits > 0, "no cache hits: {summary:?}");
    assert!(summary.smoke_ok());
    assert!(summary.cold_predict_micros > 0.0);
    assert!(summary.warm_predict_micros > 0.0);
    assert_eq!(summary.clients, 8);
    // Seeded: 48 sets each for host-a/host-b, hammer puts for host-c.
    assert!(summary.stored_sets >= 96, "{}", summary.stored_sets);
    assert_eq!(store.len() as u64, summary.stored_sets);
    assert_eq!(cache.hits(), summary.cache_hits);

    // Typed client against the same live server: a put is immediately
    // queryable and predictable from another session.
    let client = ExchangeClient::new(addr);
    let sets = client.query(QueryReq::machine("host-a")).expect("query");
    assert_eq!(sets.len(), 48);
    let reply = client
        .predict(PredictReq {
            source: IndicatorKey {
                machine: "host-a".to_string(),
                program: "synthetic-stride".to_string(),
                param: 3,
            },
            target_machine: "host-b".to_string(),
        })
        .expect("predict");
    assert!(reply.cost.is_finite());
    assert!(reply.r_squared > 0.99);
    assert!(!reply.features.is_empty());
    assert_eq!(reply.training_sets, 48);

    // Unknown machines produce typed server errors, not hangs.
    let err = client
        .predict(PredictReq {
            source: IndicatorKey {
                machine: "nope".to_string(),
                program: "nope".to_string(),
                param: 0,
            },
            target_machine: "host-b".to_string(),
        })
        .expect_err("must fail");
    assert!(matches!(err, np_serve::ClientError::Server(_)), "{err}");

    handle.stop();
}

/// Calibrations are cached by training content, so a second run with the
/// same seed against the same server finds its cold predict warm. The
/// check stays, and its error names the cause and the way out.
#[test]
fn a_repeat_run_with_the_same_seed_is_refused_with_its_cause() {
    let server = ExchangeServer::new(8, 64).with_workers(2);
    let listener = ExchangeServer::bind().expect("bind");
    let handle = server.start(listener).expect("start");
    let config = LoadgenConfig {
        addr: handle.addr().to_string(),
        clients: 2,
        frames_per_client: 3,
        seed: 11,
    };
    loadgen::run(&config).expect("first run");
    let err = loadgen::run(&config).expect_err("a repeat run's cold predict is warm");
    let msg = err.to_string();
    assert!(msg.contains("first predict reported as cached"), "{msg}");
    assert!(msg.contains("long-lived server"), "{msg}");
    assert!(msg.contains("another --seed"), "{msg}");
    assert!(msg.contains("fresh server"), "{msg}");
    // Another seed publishes other content, so its cold predict misses.
    loadgen::run(&LoadgenConfig { seed: 12, ..config }).expect("run with another seed");
    handle.stop();
}

/// `stop` shuts down open connections, so a client that connected and
/// then went quiet does not hold the server until its read deadline.
#[test]
fn stop_returns_promptly_with_an_idle_client_connected() {
    use std::io::Read;
    use std::time::{Duration, Instant};

    let server = ExchangeServer::new(2, 8).with_workers(2);
    let handle = server
        .start(ExchangeServer::bind().expect("bind"))
        .expect("start");
    let mut idle = std::net::TcpStream::connect(handle.addr()).expect("connect");
    // Give the accept loop time to hand the connection to a worker.
    std::thread::sleep(Duration::from_millis(100));
    let started = Instant::now();
    handle.stop();
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "stop took {took:?} with an idle client connected"
    );
    // The server closed the idle session: the client reads end-of-stream.
    idle.set_read_timeout(Some(Duration::from_secs(1)))
        .expect("read timeout");
    let mut buf = [0u8; 16];
    assert_eq!(idle.read(&mut buf).expect("read after stop"), 0);
}

/// A query whose sets would take the reply line past what the stock
/// client reads gets a typed error instead of a line the client drops, and
/// the same session goes on to answer a narrower query.
#[test]
fn a_reply_past_the_client_line_limit_is_refused_and_the_session_goes_on() {
    let server = ExchangeServer::new(8, 8).with_workers(1);
    let store = server.store();
    let handle = server
        .start(ExchangeServer::bind().expect("bind"))
        .expect("start");
    // More than the limit's worth of one machine's sets.
    let base = loadgen::machine_sets("big", 1);
    let (mut stored_bytes, mut sets) = (0, 0u64);
    while stored_bytes <= MAX_REPLY_LINE_BYTES {
        let mut set = base[sets as usize % base.len()].clone();
        set.key.param = sets;
        stored_bytes += serde_json::to_string(&set).unwrap().len();
        store.put(set);
        sets += 1;
    }
    let mut session = ExchangeClient::new(handle.addr().to_string())
        .connect()
        .expect("connect");
    match session.query(QueryReq::machine("big")) {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains(&format!("{sets} sets")), "{msg}");
            assert!(
                msg.contains(&format!("{MAX_REPLY_LINE_BYTES}-byte limit")),
                "{msg}"
            );
            assert!(msg.contains("narrow the query"), "{msg}");
        }
        other => panic!("expected a typed server error, got {other:?}"),
    }
    let narrower = session
        .query(QueryReq {
            param: Some(7),
            ..QueryReq::machine("big")
        })
        .expect("a narrower query on the same session");
    assert_eq!(narrower, base[7..8]);
    drop(session);
    handle.stop();
}
