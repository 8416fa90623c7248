//! The exchange server: a thread-pool TCP service over line-delimited
//! JSON frames.
//!
//! Connections are accepted on the caller's thread and handed to a fixed
//! pool of workers through a channel, so one slow client cannot starve
//! the accept loop and frame handling parallelises up to the pool size.
//! Connections are **persistent**: a client may send any number of frames
//! before closing; each frame is answered in order.
//!
//! Hardening mirrors the Memhist probe: every read goes through
//! `read_line_bounded` under `StreamDeadlines`, malformed frames produce
//! a typed error frame instead of killing the connection, and the fault
//! sites `serve.accept` / `serve.response` let the test matrix script
//! drops, truncations, delays, garbage and refusals against a live
//! server. All traffic is measured: per-endpoint latency spans, parse
//! and write spans per frame, an in-flight connection gauge,
//! request/error/fault counters.
//!
//! Replies are written from the store's bytes. Each stored set keeps its
//! compact JSON, encoded by its first reader, and a `Sets` reply splices
//! those texts into the line instead of cloning and re-encoding every
//! set: the server answers through a private mirror of `ResponseFrame`
//! that writes the same field and variant names, so the same bytes. A
//! query whose sets would take the reply line past
//! [`MAX_REPLY_LINE_BYTES`], the most the stock client reads, is refused
//! with a per-request error before any of its bytes are copied.
//! [`ExchangeServer::answer`] runs this reply path on one request line
//! without a socket.

use crate::cache::{CacheKey, Calibration, PredictionCache};
use crate::proto::{
    CostReply, PredictReq, PutReply, Request, RequestFrame, StatsReply, MAX_REPLY_LINE_BYTES,
    MODEL_ID, PROTOCOL_VERSION,
};
use crate::store::ShardedStore;
use crate::window::RateWindow;
use np_models::transfer::TransferModel;
use np_resilience::{read_line_bounded, Fault, FaultInjector, NoFaults, StreamDeadlines};
use np_telemetry::SpanTimer;
use serde::Serialize;
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest accepted request line, bytes. As many bytes of the reply
/// line's [`MAX_REPLY_LINE_BYTES`] are kept for a frame's replies other
/// than `Sets`, which echo their request's strings or carry fixed-size
/// answers.
const MAX_FRAME_BYTES: usize = 1 << 20;

/// Most requests a single frame may batch.
const MAX_BATCH: usize = 256;

/// Read and write deadline on every connection.
const IO_DEADLINE: Duration = Duration::from_secs(5);

/// Context shared by the accept loop and every worker.
struct Shared {
    store: Arc<ShardedStore>,
    cache: Arc<PredictionCache>,
    window: Arc<RateWindow>,
    faults: Arc<dyn FaultInjector>,
}

/// The indicator-exchange server.
pub struct ExchangeServer {
    shared: Arc<Shared>,
    workers: usize,
}

/// Decrements the in-flight gauge when a connection ends, however it ends.
struct InflightGuard;

impl InflightGuard {
    fn enter() -> Self {
        np_telemetry::gauge!("serve.inflight").add(1);
        InflightGuard
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        np_telemetry::gauge!("serve.inflight").add(-1);
    }
}

impl ExchangeServer {
    /// Creates a server over a fresh store with `shards` shards and a
    /// prediction cache of `cache_capacity` entries.
    pub fn new(shards: usize, cache_capacity: usize) -> Self {
        ExchangeServer {
            shared: Arc::new(Shared {
                store: Arc::new(ShardedStore::new(shards)),
                cache: Arc::new(PredictionCache::new(cache_capacity)),
                window: Arc::new(RateWindow::new(100, 64)),
                faults: Arc::new(NoFaults),
            }),
            workers: 4,
        }
    }

    /// Plugs in a fault injector (tests, chaos drills).
    pub fn with_faults(mut self, faults: Arc<dyn FaultInjector>) -> Self {
        self.update(|s| s.faults = faults);
        self
    }

    /// Sets the worker-pool size (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    fn update(&mut self, f: impl FnOnce(&mut Shared)) {
        // Builders run before the server is shared with any thread, so
        // the Arc is still unique; fall back to a clone otherwise.
        match Arc::get_mut(&mut self.shared) {
            Some(shared) => f(shared),
            None => {
                let mut shared = Shared {
                    store: Arc::clone(&self.shared.store),
                    cache: Arc::clone(&self.shared.cache),
                    window: Arc::clone(&self.shared.window),
                    faults: Arc::clone(&self.shared.faults),
                };
                f(&mut shared);
                self.shared = Arc::new(shared);
            }
        }
    }

    /// The backing store (shared; usable while the server runs).
    pub fn store(&self) -> Arc<ShardedStore> {
        Arc::clone(&self.shared.store)
    }

    /// The prediction cache (shared).
    pub fn cache(&self) -> Arc<PredictionCache> {
        Arc::clone(&self.shared.cache)
    }

    /// Answers one request line as a connection would: the reply line,
    /// without its newline. Frames that write change the store, as over
    /// a socket.
    pub fn answer(&self, line: &str) -> String {
        reply_line(&self.shared, line).0
    }

    /// Binds an ephemeral localhost port; returns the listener so the
    /// caller learns the address before serving.
    pub fn bind() -> std::io::Result<TcpListener> {
        TcpListener::bind("127.0.0.1:0")
    }

    /// Serves exactly `n` accepted connections on `listener`, then
    /// returns. Refused/dropped-at-accept connections count toward `n` so
    /// fault scripts stay bounded. Per-connection failures are counted in
    /// `serve.errors` and never kill the loop.
    pub fn serve(&self, listener: &TcpListener, n: usize) -> std::io::Result<()> {
        let stop = AtomicBool::new(false);
        self.run(listener, Some(n), &stop)
    }

    /// Spawns the server on a background thread, serving until the
    /// returned handle is stopped.
    pub fn start(self, listener: TcpListener) -> std::io::Result<ServerHandle> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let store = self.store();
        let cache = self.cache();
        let thread = std::thread::spawn(move || {
            let _ = self.run(&listener, None, &stop2);
        });
        Ok(ServerHandle {
            addr,
            stop,
            thread: Some(thread),
            store,
            cache,
        })
    }

    fn run(
        &self,
        listener: &TcpListener,
        max_conns: Option<usize>,
        stop: &AtomicBool,
    ) -> std::io::Result<()> {
        let (tx, rx) = mpsc::channel::<(usize, TcpStream)>();
        let rx = Arc::new(Mutex::new(rx));
        // Accepted connections whose handler has not returned, by accept
        // number: a stop shuts them down, so a worker blocked reading an
        // idle client returns at once instead of at its read deadline.
        let live: Arc<Mutex<HashMap<usize, TcpStream>>> = Arc::default();
        let mut pool: Vec<JoinHandle<()>> = Vec::with_capacity(self.workers);
        for _ in 0..self.workers {
            let rx = Arc::clone(&rx);
            let live = Arc::clone(&live);
            let shared = Arc::clone(&self.shared);
            pool.push(std::thread::spawn(move || loop {
                let conn = {
                    let guard = rx.lock().unwrap_or_else(|p| p.into_inner());
                    guard.recv()
                };
                match conn {
                    Ok((id, stream)) => {
                        if handle_conn(&shared, stream).is_err() {
                            np_telemetry::counter!("serve.errors").inc();
                        }
                        live.lock().unwrap_or_else(|p| p.into_inner()).remove(&id);
                    }
                    Err(_) => break, // accept loop gone: drain done
                }
            }));
        }

        let mut accepted = 0usize;
        let result = loop {
            if let Some(n) = max_conns {
                if accepted >= n {
                    break Ok(());
                }
            }
            let (stream, _) = match listener.accept() {
                Ok(conn) => conn,
                Err(e) => break Err(e),
            };
            if stop.load(SeqCst) {
                break Ok(());
            }
            accepted += 1;
            match self.shared.faults.next("serve.accept") {
                Some(Fault::RefuseAccept) | Some(Fault::DropConnection) => {
                    np_telemetry::counter!("serve.faults.refused").inc();
                    drop(stream);
                    continue;
                }
                Some(Fault::Delay(d)) => std::thread::sleep(d),
                _ => {}
            }
            if let Ok(tracked) = stream.try_clone() {
                live.lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .insert(accepted, tracked);
            }
            if tx.send((accepted, stream)).is_err() {
                break Ok(()); // all workers died; nothing left to do
            }
        };
        drop(tx);
        if stop.load(SeqCst) {
            for (_, conn) in live.lock().unwrap_or_else(|p| p.into_inner()).drain() {
                let _ = conn.shutdown(Shutdown::Both);
            }
        }
        for worker in pool {
            let _ = worker.join();
        }
        result
    }
}

/// Handle to a background [`ExchangeServer::start`] instance.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    store: Arc<ShardedStore>,
    cache: Arc<PredictionCache>,
}

impl ServerHandle {
    /// The bound address clients should dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's store (e.g. for out-of-band seeding in tests).
    pub fn store(&self) -> Arc<ShardedStore> {
        Arc::clone(&self.store)
    }

    /// The server's prediction cache.
    pub fn cache(&self) -> Arc<PredictionCache> {
        Arc::clone(&self.cache)
    }

    /// Stops the accept loop, shuts down every open connection and joins
    /// the server thread. A throwaway connection unblocks the blocking
    /// `accept`; the shutdown ends workers blocked reading idle clients.
    pub fn stop(mut self) {
        self.stop.store(true, SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Serves one connection: frames in, frames out, until the peer closes.
fn handle_conn(shared: &Shared, stream: TcpStream) -> std::io::Result<()> {
    let _inflight = InflightGuard::enter();
    StreamDeadlines::symmetric(IO_DEADLINE).apply(&stream)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let line = match read_line_bounded(&mut reader, MAX_FRAME_BYTES) {
            Ok(line) => line,
            // A close at a frame boundary is the normal end of a session;
            // anything else (oversize, non-UTF8, timeout) is an error.
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        np_telemetry::counter!("serve.rx_bytes").add(line.len() as u64);
        let (reply, _write) = reply_line(shared, &line);
        let mut payload = reply.into_bytes();
        payload.push(b'\n');
        match shared.faults.next("serve.response") {
            Some(Fault::DropConnection) | Some(Fault::RefuseAccept) => {
                np_telemetry::counter!("serve.faults.dropped").inc();
                return Ok(());
            }
            Some(Fault::TruncatePayload { keep }) => {
                np_telemetry::counter!("serve.faults.truncated").inc();
                payload.truncate(keep);
                writer.write_all(&payload)?;
                writer.flush()?;
                return Ok(()); // framing is broken; close the session
            }
            Some(Fault::GarbageBytes { len, seed }) => {
                np_telemetry::counter!("serve.faults.garbage").inc();
                payload = Fault::garbage(len, seed);
                writer.write_all(&payload)?;
                writer.flush()?;
                return Ok(());
            }
            Some(Fault::Delay(d)) => {
                np_telemetry::counter!("serve.faults.delayed").inc();
                std::thread::sleep(d);
            }
            None => {}
        }
        writer.write_all(&payload)?;
        writer.flush()?;
        np_telemetry::counter!("serve.tx_bytes").add(payload.len() as u64);
        np_telemetry::counter!("serve.frames").inc();
    }
}

/// Answers one request line: the reply line, without its newline, and
/// the `serve.write` span, opened where the reply's encoding starts, for
/// the caller to close once the line is sent.
fn reply_line(shared: &Shared, line: &str) -> (String, SpanTimer) {
    let frame = process_frame(shared, line.trim());
    let write = np_telemetry::span!("serve.write", "serve");
    (serde::Writer::document(&frame, false), write)
}

/// A reply frame as the server writes it: `ResponseFrame`'s fields under
/// the same names, so the same bytes.
#[derive(Serialize)]
struct ReplyFrame {
    version: u32,
    responses: Vec<Reply>,
    degraded: bool,
}

/// `Response` as the server writes it: the same variant names, but a
/// `Sets` reply holds the store's encoded sets.
#[derive(Serialize)]
enum Reply {
    Put(PutReply),
    Sets(StoredSets),
    Cost(CostReply),
    Stats(StatsReply),
    Error(String),
}

/// `SetsReply` as the server writes it: each matching set's stored text.
#[derive(Serialize)]
struct StoredSets {
    sets: Vec<StoredJson>,
}

/// One stored set's compact JSON, spliced into the reply verbatim.
struct StoredJson(Arc<str>);

impl Serialize for StoredJson {
    fn write_json(&self, w: &mut serde::Writer) {
        w.raw(&self.0);
    }
}

impl ReplyFrame {
    /// Wraps replies, deriving the degraded flag as `ResponseFrame::new`
    /// does.
    fn new(responses: Vec<Reply>) -> Self {
        let degraded = responses.iter().any(|r| matches!(r, Reply::Error(_)));
        ReplyFrame {
            version: PROTOCOL_VERSION,
            responses,
            degraded,
        }
    }

    /// A whole-frame failure (parse error, version mismatch, oversized
    /// batch): a single error reply, flagged degraded.
    fn error(msg: String) -> Self {
        ReplyFrame::new(vec![Reply::Error(msg)])
    }
}

/// A request of a frame once its puts have landed: a put's reply, or what
/// is left to answer.
enum Slot {
    Put(PutReply),
    Query,
    Predict(PredictReq),
    Stats,
}

/// Parses and answers one frame. Whole-frame problems (bad JSON, wrong
/// version, oversized batch) yield a single-error frame; per-request
/// problems yield an `Error` response in that request's slot only.
fn process_frame(shared: &Shared, line: &str) -> ReplyFrame {
    let parsed = {
        let _span = np_telemetry::span!("serve.parse", "serve");
        serde_json::from_str::<RequestFrame>(line)
    };
    let frame = match parsed {
        Ok(frame) => frame,
        Err(e) => {
            np_telemetry::counter!("serve.frame_errors").inc();
            return ReplyFrame::error(format!("malformed frame: {e}"));
        }
    };
    if frame.version != PROTOCOL_VERSION {
        np_telemetry::counter!("serve.frame_errors").inc();
        return ReplyFrame::error(format!(
            "protocol version {} not supported (this server speaks {})",
            frame.version, PROTOCOL_VERSION
        ));
    }
    if frame.requests.len() > MAX_BATCH {
        np_telemetry::counter!("serve.frame_errors").inc();
        return ReplyFrame::error(format!(
            "frame batches {} requests (limit {MAX_BATCH})",
            frame.requests.len()
        ));
    }

    // Frame semantics: all puts of a frame land first, then reads — so
    // queries and predicts of a frame observe its own writes, and all
    // queries are answered in one pass per store shard.
    let n_requests = frame.requests.len() as u64;
    let mut queries = Vec::new();
    let mut slots = Vec::with_capacity(frame.requests.len());
    for request in frame.requests {
        slots.push(match request {
            Request::Put(set) => {
                let _span = np_telemetry::span!("serve.put", "serve");
                np_telemetry::counter!("serve.puts").inc();
                Slot::Put(shared.store.put(set))
            }
            Request::Query(q) => {
                queries.push(q);
                Slot::Query
            }
            Request::Predict(req) => Slot::Predict(req),
            Request::Stats => Slot::Stats,
        });
    }
    let found = if queries.is_empty() {
        Vec::new()
    } else {
        let _span = np_telemetry::span!("serve.query", "serve");
        np_telemetry::counter!("serve.queries").add(queries.len() as u64);
        shared.store.query_batch_json(&queries)
    };
    let mut found = found.into_iter();

    // A request line's worth of the reply line is kept for the frame's
    // other replies; its `Sets` replies may take the rest.
    let mut sets_budget = MAX_REPLY_LINE_BYTES - MAX_FRAME_BYTES;
    let responses = slots
        .into_iter()
        .map(|slot| match slot {
            Slot::Put(reply) => Reply::Put(reply),
            Slot::Query => match found.next() {
                Some(sets) => sets_reply(sets, &mut sets_budget),
                None => Reply::Error("internal: query result misaligned".to_string()),
            },
            Slot::Predict(req) => {
                let _span = np_telemetry::span!("serve.predict", "serve");
                np_telemetry::counter!("serve.predicts").inc();
                predict(shared, &req)
            }
            Slot::Stats => {
                let _span = np_telemetry::span!("serve.stats", "serve");
                Reply::Stats(stats(shared))
            }
        })
        .collect();
    // Charge the frame to the rate window after serving it, so its own
    // cache hits/misses land in the same interval as its ops.
    shared.window.record(
        np_telemetry::now_ns(),
        n_requests,
        shared.cache.hits(),
        shared.cache.misses(),
    );
    ReplyFrame::new(responses)
}

/// The `Sets` reply of one query's stored texts, charged to `budget`; or,
/// when its bytes would overdraw the budget, an error that says so and
/// leaves the budget to the frame's other queries.
fn sets_reply(sets: Vec<Arc<str>>, budget: &mut usize) -> Reply {
    let bytes = r#"{"Sets":{"sets":[]}}"#.len()
        + sets.iter().map(|json| json.len()).sum::<usize>()
        + sets.len().saturating_sub(1);
    if bytes > *budget {
        np_telemetry::counter!("serve.replies_refused").inc();
        return Reply::Error(format!(
            "query matches {} sets, a {bytes}-byte reply that would take the reply line \
             past its {MAX_REPLY_LINE_BYTES}-byte limit; narrow the query",
            sets.len()
        ));
    }
    *budget -= bytes;
    Reply::Sets(StoredSets {
        sets: sets.into_iter().map(StoredJson).collect(),
    })
}

/// Transfers the stored source set onto the target machine's calibrated
/// cost model.
fn predict(shared: &Shared, req: &PredictReq) -> Reply {
    let source = match shared.store.get(&req.source) {
        Some(set) => set,
        None => {
            return Reply::Error(format!(
                "unknown source set {}/{}/{}",
                req.source.machine, req.source.program, req.source.param
            ))
        }
    };
    let (calibration, cached) = match calibrate(shared, &req.target_machine) {
        Ok(found) => found,
        Err(e) => return Reply::Error(e),
    };
    match calibration.model.predict(&source.indicators) {
        Some(cost) => Reply::Cost(CostReply {
            cost,
            r_squared: calibration.model.r_squared,
            features: calibration
                .model
                .features
                .iter()
                .map(|e| e.name().to_string())
                .collect(),
            training_sets: calibration.training_sets,
            cached,
        }),
        None => Reply::Error(format!(
            "source set lacks indicator features required by '{}' model",
            req.target_machine
        )),
    }
}

/// The model calibrated from `target`'s stored sets, and whether it came
/// from the cache. A miss fits from the very snapshot whose fingerprint
/// keys the entry, so a cached model is always the fit of the content its
/// key names. The shard locks of the snapshot are released before the
/// cache lock is taken.
fn calibrate(shared: &Shared, target: &str) -> Result<(Arc<Calibration>, bool), String> {
    let snapshot = shared.store.machine_snapshot(target);
    let key = CacheKey {
        target: target.to_string(),
        fingerprint: snapshot.fingerprint(),
        model: MODEL_ID.to_string(),
    };
    if let Some(calibration) = shared.cache.get(&key) {
        return Ok((calibration, true));
    }
    let pairs = snapshot.training_pairs();
    np_telemetry::counter!("serve.model.fits").inc();
    let model = TransferModel::fit(&pairs).ok_or_else(|| {
        format!(
            "cannot calibrate a cost model for '{target}' from {} stored sets",
            pairs.len()
        )
    })?;
    let calibration = Arc::new(Calibration {
        model,
        training_sets: pairs.len() as u64,
    });
    shared.cache.insert(key, Arc::clone(&calibration));
    Ok((calibration, false))
}

fn stats(shared: &Shared) -> StatsReply {
    let window = shared.window.snapshot();
    StatsReply {
        sets: shared.store.len() as u64,
        shards: shared.store.shard_count() as u64,
        generation: shared.store.generation(),
        cache_hits: shared.cache.hits(),
        cache_misses: shared.cache.misses(),
        cache_evictions: shared.cache.evictions(),
        cache_len: shared.cache.len() as u64,
        window_interval_ms: window.interval_ms,
        window_ops: window.ops,
        window_hits: window.hits,
        window_misses: window.misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::tests::sample_set;
    use crate::proto::{IndicatorKey, QueryReq, Response, ResponseFrame, SetsReply};

    /// The reply to one request line, decoded from the line the server
    /// writes.
    fn reply(shared: &Shared, line: &str) -> ResponseFrame {
        serde_json::from_str(&reply_line(shared, line).0).unwrap()
    }

    fn frame_roundtrip(shared: &Shared, requests: Vec<Request>) -> ResponseFrame {
        let line = serde_json::to_string(&RequestFrame::new(requests)).unwrap();
        reply(shared, &line)
    }

    fn shared() -> Shared {
        Shared {
            store: Arc::new(ShardedStore::new(4)),
            cache: Arc::new(PredictionCache::new(16)),
            window: Arc::new(RateWindow::new(100, 64)),
            faults: Arc::new(NoFaults),
        }
    }

    #[test]
    fn batched_frame_is_answered_in_order() {
        let shared = shared();
        let resp = frame_roundtrip(
            &shared,
            vec![
                Request::Put(sample_set("a", "p", 1)),
                Request::Query(QueryReq::machine("a")),
                Request::Stats,
            ],
        );
        assert!(!resp.degraded);
        assert!(matches!(&resp.responses[0], Response::Put(p) if !p.replaced));
        assert!(matches!(&resp.responses[1], Response::Sets(s) if s.sets.len() == 1));
        assert!(matches!(&resp.responses[2], Response::Stats(s) if s.sets == 1));
    }

    #[test]
    fn stats_carry_the_rate_window() {
        let shared = shared();
        frame_roundtrip(&shared, vec![Request::Stats, Request::Stats]);
        let resp = frame_roundtrip(&shared, vec![Request::Stats]);
        match &resp.responses[0] {
            Response::Stats(s) => {
                assert_eq!(s.window_interval_ms, 100);
                // The window is charged after a frame is served, so this
                // stats reply sees exactly the first frame's two requests.
                assert_eq!(s.window_ops.iter().sum::<u64>(), 2);
                assert_eq!(s.window_hits.len(), s.window_ops.len());
                assert_eq!(s.window_misses.len(), s.window_ops.len());
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn malformed_and_mismatched_frames_get_error_frames() {
        let shared = shared();
        let resp = reply(&shared, "this is not json");
        assert!(resp.degraded);
        assert!(matches!(&resp.responses[0], Response::Error(_)));

        let mut frame = RequestFrame::new(vec![Request::Stats]);
        frame.version = 99;
        let resp = reply(&shared, &serde_json::to_string(&frame).unwrap());
        assert!(resp.degraded);
        assert!(
            matches!(&resp.responses[0], Response::Error(e) if e.contains("version 99")),
            "{:?}",
            resp.responses
        );
    }

    #[test]
    fn oversized_batch_rejected() {
        let resp = frame_roundtrip(&shared(), vec![Request::Stats; MAX_BATCH + 1]);
        assert!(resp.degraded);
        let limit = format!("limit {MAX_BATCH}");
        assert!(matches!(&resp.responses[0], Response::Error(e) if e.contains(&limit)));
    }

    #[test]
    fn a_query_that_would_pass_the_reply_limit_is_refused_alone() {
        let sh = shared();
        // Three sets of about 0.6 MB each, in 100k-bin histograms.
        let sets: Vec<_> = (0..3)
            .map(|p| {
                let mut set = sample_set("a", "p", p);
                set.memhist = Some(crate::proto::MemhistCounts {
                    lo: vec![1; 100_000],
                    hi: vec![2; 100_000],
                    count: vec![3; 100_000],
                });
                set
            })
            .collect();
        let reply_bytes = |sets: &[crate::proto::IndicatorSet]| {
            let sets = sets.to_vec();
            serde_json::to_string(&Response::Sets(SetsReply { sets }))
                .unwrap()
                .len()
        };
        // The frame's `Sets` budget holds one three-set reply and one
        // one-set reply, but not two three-set replies.
        let budget = MAX_REPLY_LINE_BYTES - MAX_FRAME_BYTES;
        assert!(reply_bytes(&sets) + reply_bytes(&sets[1..2]) <= budget);
        assert!(2 * reply_bytes(&sets) > budget);
        for set in &sets {
            sh.store.put(set.clone());
        }
        let exact = QueryReq {
            program: Some("p".to_string()),
            param: Some(1),
            ..QueryReq::machine("a")
        };
        let resp = frame_roundtrip(
            &sh,
            vec![
                Request::Query(QueryReq::machine("a")),
                Request::Query(QueryReq::machine("a")),
                Request::Query(exact),
                Request::Stats,
            ],
        );
        assert!(resp.degraded);
        assert!(matches!(&resp.responses[0], Response::Sets(s) if s.sets == sets));
        let limit = format!("{MAX_REPLY_LINE_BYTES}-byte limit");
        assert!(
            matches!(&resp.responses[1], Response::Error(e)
                if e.contains("3 sets") && e.contains(&limit) && e.contains("narrow the query")),
            "{:?}",
            resp.responses[1]
        );
        // The refused query left its budget to the rest of the frame.
        assert!(matches!(&resp.responses[2], Response::Sets(s) if s.sets == sets[1..2]));
        assert!(matches!(&resp.responses[3], Response::Stats(s) if s.sets == 3));
    }

    #[test]
    fn a_sets_reply_that_exactly_fills_its_budget_is_served() {
        let sh = shared();
        let sets: Vec<_> = (0..3).map(|p| sample_set("a", "p", p)).collect();
        for set in &sets {
            sh.store.put(set.clone());
        }
        let stored = || {
            sh.store
                .query_batch_json(&[QueryReq::machine("a")])
                .remove(0)
        };
        let bytes = serde_json::to_string(&Response::Sets(SetsReply { sets }))
            .unwrap()
            .len();
        // One byte short: refused, naming the reply's exact size, and the
        // budget is left whole.
        let mut budget = bytes - 1;
        let size = format!("a {bytes}-byte reply");
        assert!(matches!(sets_reply(stored(), &mut budget), Reply::Error(e) if e.contains(&size)));
        assert_eq!(budget, bytes - 1);
        // An exact fit is served and spends the budget to the byte.
        let mut budget = bytes;
        assert!(matches!(sets_reply(stored(), &mut budget), Reply::Sets(s) if s.sets.len() == 3));
        assert_eq!(budget, 0);
    }

    #[test]
    fn predict_without_source_or_calibration_is_a_per_request_error() {
        let shared = shared();
        let missing = Request::Predict(PredictReq {
            source: IndicatorKey {
                machine: "a".to_string(),
                program: "p".to_string(),
                param: 1,
            },
            target_machine: "b".to_string(),
        });
        let resp = frame_roundtrip(&shared, vec![missing.clone(), Request::Stats]);
        assert!(resp.degraded);
        assert!(matches!(&resp.responses[0], Response::Error(e) if e.contains("unknown source")));
        // The rest of the frame is still served.
        assert!(matches!(&resp.responses[1], Response::Stats(_)));

        // Source present but no training data for the target.
        shared.store.put(sample_set("a", "p", 1));
        let resp = frame_roundtrip(&shared, vec![missing]);
        assert!(matches!(&resp.responses[0], Response::Error(e) if e.contains("cannot calibrate")));
    }
}
