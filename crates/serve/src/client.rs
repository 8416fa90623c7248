//! Typed client for the indicator exchange.
//!
//! Two layers, mirroring `RemoteMemhist`: [`ClientSession`] is one live
//! connection speaking frames (the cheap path — loadgen keeps one per
//! worker), and [`ExchangeClient`] is the resilient entry point that
//! dials a **fresh connection per attempt** under a `RetryPolicy`, so a
//! dropped or garbled session never strands a caller. Every wire error
//! is folded into the typed [`ClientError`]; server-side `Error`
//! responses surface as `ClientError::Server` without retries (they are
//! deterministic, retrying cannot help).

use crate::proto::{
    CostReply, IndicatorSet, PredictReq, QueryReq, Request, RequestFrame, Response, ResponseFrame,
    StatsReply, MAX_REPLY_LINE_BYTES, PROTOCOL_VERSION,
};
use np_resilience::{read_line_bounded, RetryError, RetryPolicy, StreamDeadlines};
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why an exchange call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Transport-level failure (connect, read, write, timeout).
    Io(String),
    /// The peer spoke, but not the protocol (bad JSON, wrong version,
    /// misaligned batch) — typically an injected garble or truncation.
    Protocol(String),
    /// The server answered with a typed error response.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Server(e) => write!(f, "server: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Client-side limits.
#[derive(Debug, Clone)]
pub struct ClientLimits {
    /// Largest accepted response line, bytes.
    pub max_frame_bytes: usize,
    /// Socket deadlines for every session.
    pub io: StreamDeadlines,
}

impl Default for ClientLimits {
    fn default() -> Self {
        ClientLimits {
            max_frame_bytes: MAX_REPLY_LINE_BYTES,
            io: StreamDeadlines::symmetric(Duration::from_secs(5)),
        }
    }
}

/// One live connection to the exchange.
pub struct ClientSession {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    max_frame_bytes: usize,
}

impl ClientSession {
    /// Dials the exchange and applies the deadlines.
    pub fn connect(addr: impl ToSocketAddrs, limits: &ClientLimits) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr).map_err(|e| ClientError::Io(e.to_string()))?;
        limits
            .io
            .apply(&stream)
            .map_err(|e| ClientError::Io(e.to_string()))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| ClientError::Io(e.to_string()))?,
        );
        Ok(ClientSession {
            reader,
            writer: stream,
            max_frame_bytes: limits.max_frame_bytes,
        })
    }

    /// Sends one frame and reads its response frame.
    pub fn roundtrip(&mut self, frame: &RequestFrame) -> Result<ResponseFrame, ClientError> {
        let mut line = serde_json::to_string(frame)
            .map_err(|e| ClientError::Protocol(format!("encode: {e}")))?;
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.flush())
            .map_err(|e| ClientError::Io(e.to_string()))?;
        let reply = read_line_bounded(&mut self.reader, self.max_frame_bytes)
            .map_err(|e| ClientError::Io(e.to_string()))?;
        let resp: ResponseFrame = serde_json::from_str(reply.trim())
            .map_err(|e| ClientError::Protocol(format!("decode: {e}")))?;
        if resp.version != PROTOCOL_VERSION {
            return Err(ClientError::Protocol(format!(
                "server speaks protocol {} (expected {})",
                resp.version, PROTOCOL_VERSION
            )));
        }
        if resp.degraded {
            np_telemetry::counter!("serve.client.degraded").inc();
        }
        np_telemetry::counter!("serve.client.frames").inc();
        Ok(resp)
    }

    /// Runs a batch and checks the response count lines up.
    pub fn batch(&mut self, requests: Vec<Request>) -> Result<Vec<Response>, ClientError> {
        let expect = requests.len();
        let resp = self.roundtrip(&RequestFrame::new(requests))?;
        if resp.responses.len() != expect {
            return Err(ClientError::Protocol(format!(
                "{} responses for {} requests",
                resp.responses.len(),
                expect
            )));
        }
        Ok(resp.responses)
    }

    /// Stores indicator sets; returns the store generation after the last
    /// write.
    pub fn put(&mut self, sets: Vec<IndicatorSet>) -> Result<u64, ClientError> {
        put_generation(self.batch(sets.into_iter().map(Request::Put).collect())?)
    }

    /// Fetches all sets matching a filter.
    pub fn query(&mut self, q: QueryReq) -> Result<Vec<IndicatorSet>, ClientError> {
        let mut results = self.query_batch(vec![q])?;
        Ok(results.pop().unwrap_or_default())
    }

    /// Fetches several filters in one frame (one store pass per shard).
    pub fn query_batch(
        &mut self,
        qs: Vec<QueryReq>,
    ) -> Result<Vec<Vec<IndicatorSet>>, ClientError> {
        self.batch(qs.into_iter().map(Request::Query).collect())?
            .into_iter()
            .map(sets)
            .collect()
    }

    /// Transfers a stored set onto a target machine's cost model.
    pub fn predict(&mut self, req: PredictReq) -> Result<CostReply, ClientError> {
        cost(self.batch(vec![Request::Predict(req)])?.remove(0))
    }

    /// Server statistics.
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        stats(self.batch(vec![Request::Stats])?.remove(0))
    }
}

/// The error for a reply of the wrong kind: the server's own `Error`
/// reply surfaces as [`ClientError::Server`], any other kind as a
/// protocol error naming the request `kind`.
fn unexpected(kind: &str, reply: Response) -> ClientError {
    match reply {
        Response::Error(e) => ClientError::Server(e),
        other => ClientError::Protocol(format!("{kind} answered with {other:?}")),
    }
}

/// The store generation after the last of a frame's `put` replies.
fn put_generation(replies: Vec<Response>) -> Result<u64, ClientError> {
    replies.into_iter().try_fold(0, |_, r| match r {
        Response::Put(p) => Ok(p.generation),
        other => Err(unexpected("put", other)),
    })
}

/// The sets a `query` reply carries.
fn sets(reply: Response) -> Result<Vec<IndicatorSet>, ClientError> {
    match reply {
        Response::Sets(s) => Ok(s.sets),
        other => Err(unexpected("query", other)),
    }
}

/// The cost a `predict` reply carries.
fn cost(reply: Response) -> Result<CostReply, ClientError> {
    match reply {
        Response::Cost(c) => Ok(c),
        other => Err(unexpected("predict", other)),
    }
}

/// The statistics a `stats` reply carries.
fn stats(reply: Response) -> Result<StatsReply, ClientError> {
    match reply {
        Response::Stats(s) => Ok(s),
        other => Err(unexpected("stats", other)),
    }
}

/// The resilient exchange client: one fresh connection per attempt.
pub struct ExchangeClient {
    addr: String,
    limits: ClientLimits,
    retry: RetryPolicy,
}

impl ExchangeClient {
    /// A client for `addr` with default limits and a small deterministic
    /// retry budget.
    pub fn new(addr: impl Into<String>) -> Self {
        ExchangeClient {
            addr: addr.into(),
            limits: ClientLimits::default(),
            retry: RetryPolicy::new(3)
                .with_base_delay(Duration::from_millis(5))
                .with_seed(0x5e7e),
        }
    }

    /// Overrides the client limits.
    pub fn with_limits(mut self, limits: ClientLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Overrides the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Opens a persistent session (no retries — callers owning a session
    /// handle reconnects themselves).
    pub fn connect(&self) -> Result<ClientSession, ClientError> {
        ClientSession::connect(self.addr.as_str(), &self.limits)
    }

    /// Runs one frame exchange, reconnecting per attempt. `Io` and
    /// `Protocol` failures are transient (a fresh connection may well
    /// succeed — injected faults are usually scripted one-shots); typed
    /// server errors are permanent.
    pub fn exchange(&self, frame: &RequestFrame) -> Result<ResponseFrame, ClientError> {
        let result = self.retry.run(
            |attempt| {
                if attempt > 1 {
                    np_telemetry::counter!("serve.client.retries").inc();
                }
                let mut session = self.connect()?;
                session.roundtrip(frame)
            },
            |e| !matches!(e, ClientError::Server(_)),
        );
        result.map_err(|e| match e {
            RetryError::Permanent(e) => e,
            RetryError::Exhausted { attempts, last } => {
                ClientError::Io(format!("gave up after {attempts} attempts: {last}"))
            }
        })
    }

    /// Resilient one-shot `put`.
    pub fn put(&self, sets: Vec<IndicatorSet>) -> Result<u64, ClientError> {
        let frame = RequestFrame::new(sets.into_iter().map(Request::Put).collect());
        put_generation(self.exchange(&frame)?.responses)
    }

    /// Resilient one-shot `query`.
    pub fn query(&self, q: QueryReq) -> Result<Vec<IndicatorSet>, ClientError> {
        sets(self.single(Request::Query(q))?)
    }

    /// Resilient one-shot `predict`.
    pub fn predict(&self, req: PredictReq) -> Result<CostReply, ClientError> {
        cost(self.single(Request::Predict(req))?)
    }

    /// Resilient one-shot `stats`.
    pub fn stats(&self) -> Result<StatsReply, ClientError> {
        stats(self.single(Request::Stats)?)
    }

    /// Exchanges a one-request frame; returns its first reply, decoded by
    /// the caller outside the retry loop.
    fn single(&self, request: Request) -> Result<Response, ClientError> {
        let resp = self.exchange(&RequestFrame::new(vec![request]))?;
        resp.responses
            .into_iter()
            .next()
            .ok_or_else(|| ClientError::Protocol("empty response frame".to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{PutReply, SetsReply};

    #[test]
    fn replies_decode_to_their_kind_or_a_typed_error() {
        let put = |generation| {
            Response::Put(PutReply {
                replaced: false,
                generation,
            })
        };
        assert_eq!(put_generation(vec![put(3), put(5)]), Ok(5));
        assert_eq!(
            put_generation(vec![put(3), Response::Error("full".into()), put(5)]),
            Err(ClientError::Server("full".into()))
        );
        assert_eq!(
            sets(Response::Sets(SetsReply { sets: Vec::new() })),
            Ok(Vec::new())
        );
        match stats(put(1)) {
            Err(ClientError::Protocol(m)) => assert!(m.starts_with("stats answered with Put")),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        assert!(matches!(
            cost(Response::Error("unknown source".into())),
            Err(ClientError::Server(m)) if m == "unknown source"
        ));
    }
}
