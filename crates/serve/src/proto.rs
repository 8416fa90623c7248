//! The exchange wire protocol: versioned, line-delimited JSON frames.
//!
//! One frame per line, one JSON document per frame. A request frame may
//! carry **many** requests (batching is the whole point — the server
//! answers all queries of a frame in a single pass per store shard), and
//! the response frame carries one response per request, in order. The
//! `version` field is checked on both sides so protocol drift fails fast
//! instead of mis-parsing.
//!
//! Wire types use parallel vectors instead of tuple sequences (the
//! in-tree serde shim has no tuple support) and only plain named-field
//! structs plus unit / newtype enum variants — the subset both shim
//! halves round-trip exactly. `f64` values round-trip bit-exactly
//! (shortest-roundtrip formatting), which is what makes content digests
//! and predicted costs stable across the wire.

use np_simulator::HwEvent;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Protocol version spoken by this build; frames carrying any other
/// version are rejected with a typed error response.
///
/// History: v1 — initial put/query/predict/stats; v2 — `Stats` replies
/// gained the rolling rate window (`window_*` fields), so a v1 client
/// would mis-parse them.
pub const PROTOCOL_VERSION: u32 = 2;

/// Longest reply line, its newline included, that the stock client reads
/// (the default `ClientLimits::max_frame_bytes`), and so the longest the
/// server writes: a query whose sets would take its frame's reply past it
/// is answered with a typed error instead.
pub const MAX_REPLY_LINE_BYTES: usize = 1 << 22;

/// Identity of the cost-model family used for `predict`; part of the
/// prediction cache key so a future model change cannot serve stale models.
pub const MODEL_ID: &str = "transfer-linear-v1";

/// Primary key of a stored indicator set: which machine measured which
/// program at which workload-size parameter.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct IndicatorKey {
    /// Machine descriptor name (e.g. `dl580`, `two-socket`).
    pub machine: String,
    /// Program / workload name.
    pub program: String,
    /// Workload-size parameter the run was measured at.
    pub param: u64,
}

/// Memhist interval counts as parallel vectors (`lo[i], hi[i]) → count[i]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemhistCounts {
    /// Inclusive lower latency bounds, cycles.
    pub lo: Vec<u64>,
    /// Exclusive upper latency bounds, cycles (`u64::MAX` for the last bin).
    pub hi: Vec<u64>,
    /// Occurrences per interval; negatives are real subtraction artefacts.
    pub count: Vec<i64>,
}

/// Phasenprüfer phase-split summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSplit {
    /// Sample index of the first point of phase 2.
    pub pivot_index: u64,
    /// Simulated time of the transition, cycles.
    pub pivot_time: u64,
    /// Slope of the ramp-up fit.
    pub ramp_slope: f64,
}

/// One published measurement: machine descriptor plus everything the tool
/// suite extracted from a run (EvSel event means, Memhist intervals,
/// phase split).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndicatorSet {
    /// Primary key.
    pub key: IndicatorKey,
    /// Seed of the measurement campaign (provenance).
    pub seed: u64,
    /// Measured cost in cycles — the `y` of the indicator-to-cost fit.
    pub cycles: f64,
    /// Per-event indicator means — the `x` of the fit.
    pub indicators: BTreeMap<HwEvent, f64>,
    /// Memhist latency intervals, when measured.
    pub memhist: Option<MemhistCounts>,
    /// Phase split, when detected.
    pub phases: Option<PhaseSplit>,
}

impl IndicatorSet {
    /// Content digest: FNV-1a over the canonical JSON serialization.
    /// Deterministic because field order is fixed by the derive, map keys
    /// are `BTreeMap`-sorted and `f64` formatting is shortest-roundtrip.
    pub fn digest(&self) -> u64 {
        fnv1a64(serde_json::to_string(self).unwrap_or_default().as_bytes())
    }
}

/// Filter for `query`: `None` fields match everything.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryReq {
    /// Restrict to a machine descriptor.
    pub machine: Option<String>,
    /// Restrict to a program.
    pub program: Option<String>,
    /// Restrict to a workload parameter.
    pub param: Option<u64>,
}

impl QueryReq {
    /// A query matching every stored set.
    pub fn any() -> Self {
        QueryReq {
            machine: None,
            program: None,
            param: None,
        }
    }

    /// All sets of one machine.
    pub fn machine(machine: &str) -> Self {
        QueryReq {
            machine: Some(machine.to_string()),
            program: None,
            param: None,
        }
    }

    /// Whether a stored key satisfies the filter.
    pub fn matches(&self, key: &IndicatorKey) -> bool {
        self.machine.as_deref().is_none_or(|m| m == key.machine)
            && self.program.as_deref().is_none_or(|p| p == key.program)
            && self.param.is_none_or(|p| p == key.param)
    }
}

/// `predict`: price the indicator set stored under `source` on
/// `target_machine`, using a cost model calibrated from the sets stored
/// for that target — the paper's cross-machine indicator transfer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictReq {
    /// Key of the stored indicator set to transfer.
    pub source: IndicatorKey,
    /// Machine whose stored measurements calibrate the cost model.
    pub target_machine: String,
}

/// One request inside a frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Store (or replace) an indicator set.
    Put(IndicatorSet),
    /// Fetch stored sets matching a filter.
    Query(QueryReq),
    /// Transfer a stored set onto another machine's cost model.
    Predict(PredictReq),
    /// Server / store / cache statistics.
    Stats,
}

/// Reply to `Put`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PutReply {
    /// True when an existing set under the same key was replaced.
    pub replaced: bool,
    /// Store generation after the write (bumped by every put, whether
    /// or not it changed any content; no cache keys on it).
    pub generation: u64,
}

/// Reply to `Query`: matching sets, sorted by key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SetsReply {
    /// The matching indicator sets in ascending key order.
    pub sets: Vec<IndicatorSet>,
}

/// Reply to `Predict`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostReply {
    /// Predicted cost in cycles on the target machine.
    pub cost: f64,
    /// R² of the calibrated model on its training data.
    pub r_squared: f64,
    /// Feature events the fit kept, by name.
    pub features: Vec<String>,
    /// Number of stored sets the model was calibrated from.
    pub training_sets: u64,
    /// True when the calibrated model came from the cache: the target's
    /// stored content was unchanged since an earlier predict fitted it.
    /// The cost itself is always evaluated for this request's source.
    pub cached: bool,
}

/// Reply to `Stats`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Stored indicator sets.
    pub sets: u64,
    /// Store shard count.
    pub shards: u64,
    /// Current store generation.
    pub generation: u64,
    /// Prediction-cache hits since boot (predicts that reused a
    /// calibrated model).
    pub cache_hits: u64,
    /// Prediction-cache misses since boot (predicts that fitted one).
    pub cache_misses: u64,
    /// Prediction-cache evictions since boot.
    pub cache_evictions: u64,
    /// Calibrated models currently cached.
    pub cache_len: u64,
    /// Width of one rate-window interval, milliseconds.
    pub window_interval_ms: u64,
    /// Requests served per retained interval, oldest first (parallel to
    /// `window_hits` / `window_misses`).
    pub window_ops: Vec<u64>,
    /// Prediction-cache hits per retained interval.
    pub window_hits: Vec<u64>,
    /// Prediction-cache misses per retained interval.
    pub window_misses: Vec<u64>,
}

/// One response inside a frame, positionally matching its request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// `Put` acknowledged.
    Put(PutReply),
    /// `Query` results.
    Sets(SetsReply),
    /// `Predict` result.
    Cost(CostReply),
    /// `Stats` result.
    Stats(StatsReply),
    /// The request could not be served; the rest of the frame still was.
    Error(String),
}

/// A client→server frame: one line, many requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestFrame {
    /// Must equal [`PROTOCOL_VERSION`].
    pub version: u32,
    /// The batched requests.
    pub requests: Vec<Request>,
}

impl RequestFrame {
    /// A frame at the current protocol version.
    pub fn new(requests: Vec<Request>) -> Self {
        RequestFrame {
            version: PROTOCOL_VERSION,
            requests,
        }
    }
}

/// A server→client frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseFrame {
    /// Echoes [`PROTOCOL_VERSION`].
    pub version: u32,
    /// One response per request, in request order.
    pub responses: Vec<Response>,
    /// True when any response in the frame is an error — the frame is
    /// usable but incomplete, mirroring `MemhistResult::degraded`.
    pub degraded: bool,
}

impl ResponseFrame {
    /// Wraps responses, deriving the degraded flag.
    pub fn new(responses: Vec<Response>) -> Self {
        let degraded = responses.iter().any(|r| matches!(r, Response::Error(_)));
        ResponseFrame {
            version: PROTOCOL_VERSION,
            responses,
            degraded,
        }
    }

    /// A whole-frame failure (parse error, version mismatch, oversized
    /// batch): a single error response, flagged degraded.
    pub fn error(msg: impl Into<String>) -> Self {
        ResponseFrame {
            version: PROTOCOL_VERSION,
            responses: vec![Response::Error(msg.into())],
            degraded: true,
        }
    }
}

/// 64-bit FNV-1a — the store's shard router and the digest primitive.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample_set(machine: &str, program: &str, param: u64) -> IndicatorSet {
        let mut indicators = BTreeMap::new();
        indicators.insert(HwEvent::L1dMiss, 12.5 + param as f64);
        indicators.insert(HwEvent::RemoteDramAccess, 3.25 * param as f64);
        IndicatorSet {
            key: IndicatorKey {
                machine: machine.to_string(),
                program: program.to_string(),
                param,
            },
            seed: 42,
            cycles: 1.0e6 + param as f64,
            indicators,
            memhist: Some(MemhistCounts {
                lo: vec![1, 4],
                hi: vec![4, u64::MAX],
                count: vec![10, -2],
            }),
            phases: Some(PhaseSplit {
                pivot_index: 7,
                pivot_time: 123_456,
                ramp_slope: 81.5,
            }),
        }
    }

    #[test]
    fn frames_roundtrip_through_json() {
        let frame = RequestFrame::new(vec![
            Request::Put(sample_set("dl580", "stream", 9)),
            Request::Query(QueryReq::machine("dl580")),
            Request::Predict(PredictReq {
                source: IndicatorKey {
                    machine: "dl580".to_string(),
                    program: "stream".to_string(),
                    param: 9,
                },
                target_machine: "two-socket".to_string(),
            }),
            Request::Stats,
        ]);
        let json = serde_json::to_string(&frame).unwrap();
        let back: RequestFrame = serde_json::from_str(&json).unwrap();
        assert_eq!(frame, back);

        let resp = ResponseFrame::new(vec![
            Response::Put(PutReply {
                replaced: false,
                generation: 1,
            }),
            Response::Sets(SetsReply {
                sets: vec![sample_set("dl580", "stream", 9)],
            }),
            Response::Error("no calibration data".to_string()),
        ]);
        assert!(resp.degraded);
        let json = serde_json::to_string(&resp).unwrap();
        let back: ResponseFrame = serde_json::from_str(&json).unwrap();
        assert_eq!(resp, back);
    }

    #[test]
    fn digest_is_content_stable() {
        let a = sample_set("dl580", "stream", 9);
        let b = sample_set("dl580", "stream", 9);
        assert_eq!(a.digest(), b.digest());
        // Survives a JSON roundtrip (bit-exact f64 formatting).
        let c: IndicatorSet = serde_json::from_str(&serde_json::to_string(&a).unwrap()).unwrap();
        assert_eq!(a.digest(), c.digest());
        // Any content change moves the digest.
        let mut d = sample_set("dl580", "stream", 9);
        d.cycles += 1.0;
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn query_filters_compose() {
        let key = IndicatorKey {
            machine: "dl580".to_string(),
            program: "stream".to_string(),
            param: 4,
        };
        assert!(QueryReq::any().matches(&key));
        assert!(QueryReq::machine("dl580").matches(&key));
        assert!(!QueryReq::machine("ring").matches(&key));
        let exact = QueryReq {
            machine: Some("dl580".to_string()),
            program: Some("stream".to_string()),
            param: Some(4),
        };
        assert!(exact.matches(&key));
        let wrong_param = QueryReq {
            param: Some(5),
            ..exact
        };
        assert!(!wrong_param.matches(&key));
    }
}
