//! Wire-format goldens: the exact compact and pretty JSON text of a
//! seeded sample of every document the tools exchange or write — the
//! np-serve frames, indicator sets, captures and timelines, the
//! np-bench/1 and np-patterns/1 documents, a machine file and the event
//! catalog.
//!
//! Each file under `tests/golden/wire/` holds the compact text on its
//! first line and the pretty text after it. A change to the JSON codec
//! must leave every byte in place and every document must decode back
//! to the value it was written from. An intended format change rewrites
//! the goldens in the same commit.

use np_bench::harness::{BenchCell, BenchReport, BENCH_SCHEMA};
use np_core::capture::{Capture, SeriesDoc, Timeline, CAPTURE_SCHEMA, TIMELINE_SCHEMA};
use np_counters::catalog::EventCatalog;
use np_patterns::classify::{Evidence, Verdict};
use np_patterns::schema::{CaseDoc, MetricDoc, PatternsDoc, PhaseDoc};
use np_serve::proto::{
    CostReply, IndicatorKey, IndicatorSet, MemhistCounts, PhaseSplit, PredictReq, PutReply,
    QueryReq, Request, RequestFrame, Response, ResponseFrame, SetsReply, StatsReply,
};
use np_serve::BenchMeta;
use np_simulator::{HwEvent, MachineConfig};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::path::PathBuf;

/// `IndicatorSet::digest` of [`full_set`]: FNV-1a over its compact text.
const FULL_SET_DIGEST: u64 = 0x1bac_dfc4_2f8c_3d10;

/// A seeded xorshift stream; every sample below is a pure function of it.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A float whose text is long or awkward: a seeded fraction, or one
    /// of the values whose formatting is easiest to get wrong.
    fn float(&mut self) -> f64 {
        const AWKWARD: [f64; 10] = [
            0.0,
            -0.0,
            3.0,
            0.1,
            1e-7,
            -2.5e-12,
            1e21,
            123_456_789.012_345_67,
            f64::MAX,
            f64::MIN_POSITIVE,
        ];
        match self.below(3) {
            0 => AWKWARD[self.below(AWKWARD.len() as u64) as usize],
            1 => self.below(1 << 40) as f64 / 7.0,
            _ => -(self.below(1 << 20) as f64) * 1.25,
        }
    }

    fn u64s(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.below(1 << 34)).collect()
    }
}

/// Text with every class of character the string writer escapes.
const ESCAPED: &str = "q\"uote\\ back/slash\n\r\t\u{1}\u{1f} é ∑ 😀";

fn indicators(rng: &mut Rng) -> BTreeMap<HwEvent, f64> {
    let mut map = BTreeMap::new();
    for e in HwEvent::ALL {
        if rng.below(3) != 0 {
            map.insert(e, rng.float());
        }
    }
    map
}

fn full_set(rng: &mut Rng) -> IndicatorSet {
    IndicatorSet {
        key: IndicatorKey {
            machine: "dl580".to_string(),
            program: format!("stream/{ESCAPED}"),
            param: u64::MAX,
        },
        seed: rng.next(),
        cycles: rng.float(),
        indicators: indicators(rng),
        memhist: Some(MemhistCounts {
            lo: vec![0, 4, 64, 512],
            hi: vec![4, 64, 512, u64::MAX],
            count: vec![rng.below(1000) as i64, -7, i64::MIN, i64::MAX],
        }),
        phases: Some(PhaseSplit {
            pivot_index: rng.below(100),
            pivot_time: rng.next(),
            ramp_slope: rng.float(),
        }),
    }
}

fn bare_set(rng: &mut Rng) -> IndicatorSet {
    IndicatorSet {
        key: IndicatorKey {
            machine: "two-socket".to_string(),
            program: "sort".to_string(),
            param: 0,
        },
        seed: 0,
        cycles: rng.float(),
        indicators: BTreeMap::new(),
        memhist: None,
        phases: None,
    }
}

fn request_frame(rng: &mut Rng) -> RequestFrame {
    RequestFrame::new(vec![
        Request::Put(full_set(rng)),
        Request::Put(bare_set(rng)),
        Request::Query(QueryReq::any()),
        Request::Query(QueryReq {
            machine: Some("dl580".to_string()),
            program: Some(ESCAPED.to_string()),
            param: Some(rng.next()),
        }),
        Request::Predict(PredictReq {
            source: full_set(rng).key,
            target_machine: "ring".to_string(),
        }),
        Request::Stats,
    ])
}

fn response_frame(rng: &mut Rng) -> ResponseFrame {
    ResponseFrame::new(vec![
        Response::Put(PutReply {
            replaced: true,
            generation: rng.next(),
        }),
        Response::Sets(SetsReply {
            sets: vec![full_set(rng), bare_set(rng)],
        }),
        Response::Sets(SetsReply { sets: Vec::new() }),
        Response::Cost(CostReply {
            cost: rng.float(),
            r_squared: rng.float(),
            features: vec!["L1dMiss".to_string(), ESCAPED.to_string()],
            training_sets: rng.below(64),
            cached: false,
        }),
        Response::Stats(StatsReply {
            sets: rng.below(1000),
            shards: 8,
            generation: rng.next(),
            cache_hits: rng.below(1000),
            cache_misses: rng.below(1000),
            cache_evictions: 0,
            cache_len: rng.below(128),
            window_interval_ms: 100,
            window_ops: rng.u64s(3),
            window_hits: rng.u64s(3),
            window_misses: Vec::new(),
        }),
        Response::Error(format!("no calibration data: {ESCAPED}")),
    ])
}

fn capture(rng: &mut Rng) -> Capture {
    let series = ["rep0.node0.l3_miss", "rep0.node1.qpi", "rep1.node0.cycles"]
        .iter()
        .map(|name| {
            let bins = 1 + rng.below(5) as usize;
            let mut dt = rng.u64s(bins);
            dt[0] = 0;
            SeriesDoc {
                name: name.to_string(),
                stride: 1 << rng.below(4),
                t0: rng.below(1 << 40),
                dt,
                phase: (0..bins).map(|_| rng.below(2)).collect(),
                count: rng.u64s(bins),
                sum: rng.u64s(bins),
                min: rng.u64s(bins),
                max: rng.u64s(bins),
            }
        })
        .collect();
    Capture {
        schema: CAPTURE_SCHEMA.to_string(),
        machine: "Fully interconnected".to_string(),
        workload: "row-major".to_string(),
        seed: rng.next(),
        repetitions: 2,
        phases: vec!["-".to_string(), ESCAPED.to_string()],
        series,
    }
}

fn timeline(rng: &mut Rng) -> Timeline {
    let chunks = 6;
    Timeline {
        schema: TIMELINE_SCHEMA.to_string(),
        workers: 2,
        chunk: (0..chunks).collect(),
        worker: (0..chunks).map(|_| rng.below(2)).collect(),
        wait_ns: rng.u64s(chunks as usize),
        start_ns: rng.u64s(chunks as usize),
        end_ns: rng.u64s(chunks as usize),
    }
}

fn bench_report(rng: &mut Rng) -> BenchReport {
    let cell = |rng: &mut Rng, workload: &str, threads: u64| {
        let mut cell = BenchCell {
            id: format!("{workload}/t{threads}"),
            workload: workload.to_string(),
            threads,
            size: rng.below(100_000),
            samples_ns: rng.u64s(3),
            mean_ns: 0.0,
            stddev_ns: 0.0,
            digest: format!("{:016x}", rng.next()),
            audit_ok: rng.below(2) == 0,
            metrics: BTreeMap::from([
                ("det_items".to_string(), rng.below(50) as f64),
                ("modeled_speedup".to_string(), rng.float()),
            ]),
        };
        cell.finalize();
        cell
    };
    BenchReport {
        schema: BENCH_SCHEMA.to_string(),
        bench_meta: BenchMeta {
            meta_version: 1,
            tool: "np-bench".to_string(),
            host: ESCAPED.to_string(),
            host_threads: 2,
            threads: 1,
            seed: rng.next(),
            commit: "d885186".to_string(),
        },
        machine: "two-socket".to_string(),
        warmup: 1,
        repeats: 3,
        cells: vec![cell(rng, "campaign", 1), cell(rng, "loadgen", 2)],
    }
}

fn patterns_doc(rng: &mut Rng) -> PatternsDoc {
    let metrics = |rng: &mut Rng| -> Vec<MetricDoc> {
        ["remote_ratio", "imc_skew"]
            .iter()
            .map(|m| MetricDoc {
                metric: m.to_string(),
                value_pm: rng.below(1001),
                available: rng.below(4) != 0,
            })
            .collect()
    };
    let verdicts = |rng: &mut Rng| -> Vec<Verdict> {
        ["bandwidth-bound", "numa-imbalance"]
            .iter()
            .map(|p| Verdict {
                pattern: p.to_string(),
                fired: rng.below(2) == 0,
                confidence_pm: rng.below(1001),
                envelope_confidence_pm: (rng.below(2) == 0).then(|| rng.below(1001)),
                evidence: vec![Evidence {
                    metric: "remote_ratio".to_string(),
                    op: ">=".to_string(),
                    threshold_pm: 300,
                    observed_pm: rng.below(1001),
                    available: true,
                    passed: rng.below(2) == 0,
                }],
            })
            .collect()
    };
    let cases = vec![CaseDoc {
        workload: "stream-remote".to_string(),
        machine: "two-socket".to_string(),
        threads: 2,
        seed: rng.next(),
        metrics: metrics(rng),
        verdicts: verdicts(rng),
        fired: vec!["numa-imbalance".to_string()],
        expected: Vec::new(),
        matched: false,
    }];
    let phases = vec![PhaseDoc {
        phase: ESCAPED.to_string(),
        metrics: metrics(rng),
        verdicts: verdicts(rng),
        fired: Vec::new(),
    }];
    PatternsDoc::new("registry-sweep", cases, phases)
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/wire")
        .join(format!("{name}.txt"))
}

/// The golden text of `value`: compact on one line, then pretty.
fn render<T: Serialize>(value: &T) -> String {
    let compact = serde_json::to_string(value).unwrap();
    let pretty = serde_json::to_string_pretty(value).unwrap();
    assert!(!compact.contains('\n'), "compact text spans lines");
    format!("{compact}\n{pretty}\n")
}

/// Compares `value`'s text with its golden byte for byte and decodes both
/// texts back to `value`.
fn check<T>(name: &str, value: &T) -> Result<(), String>
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    let text = render(value);
    let path = golden_path(name);
    let golden = std::fs::read_to_string(&path)
        .map_err(|e| format!("{name}: cannot read {}: {e}", path.display()))?;
    if text != golden {
        let at = text
            .bytes()
            .zip(golden.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(text.len().min(golden.len()));
        return Err(format!(
            "{name}: text differs from the golden at byte {at} \
             (got {} bytes, golden {} bytes)",
            text.len(),
            golden.len()
        ));
    }
    let (compact, pretty) = text.split_once('\n').unwrap();
    for (form, doc) in [("compact", compact), ("pretty", pretty)] {
        let back: T = serde_json::from_str(doc).map_err(|e| format!("{name} {form}: {e}"))?;
        if &back != value {
            return Err(format!("{name} {form}: decodes to a different value"));
        }
    }
    Ok(())
}

#[test]
fn every_document_matches_its_golden_byte_for_byte_and_roundtrips() {
    let mut rng = Rng(0x0005_eed0_fa11_d0c5);
    let results = [
        check("request_frame", &request_frame(&mut rng)),
        check("response_frame", &response_frame(&mut rng)),
        check("indicator_set_full", &full_set(&mut rng)),
        check("indicator_set_bare", &bare_set(&mut rng)),
        check("capture", &capture(&mut rng)),
        check("timeline", &timeline(&mut rng)),
        check("bench_report", &bench_report(&mut rng)),
        check("patterns_doc", &patterns_doc(&mut rng)),
        check("machine_config", &MachineConfig::eight_socket_ring()),
        check("event_catalog", &EventCatalog::builtin()),
    ];
    let failures: Vec<String> = results.into_iter().filter_map(Result::err).collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn the_indicator_set_digest_is_pinned() {
    let set = full_set(&mut Rng(0xd1_6e57));
    assert_eq!(set.digest(), FULL_SET_DIGEST, "{:#018x}", set.digest());
}

#[test]
fn response_frame_samples_cover_every_kind() {
    // A new `Request` or `Response` kind fails to compile here until the
    // goldens above carry it.
    let frame = request_frame(&mut Rng(1));
    for request in &frame.requests {
        match request {
            Request::Put(_) | Request::Query(_) | Request::Predict(_) | Request::Stats => {}
        }
    }
    let frame = response_frame(&mut Rng(1));
    assert!(frame.degraded);
    for response in &frame.responses {
        match response {
            Response::Put(_)
            | Response::Sets(_)
            | Response::Cost(_)
            | Response::Stats(_)
            | Response::Error(_) => {}
        }
    }
}
