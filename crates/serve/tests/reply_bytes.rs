//! The server writes `Sets` replies from the store's encoded sets instead
//! of encoding each reply as a `ResponseFrame`. Every reply line must
//! still be exactly what `serde_json::to_string` writes for the frame it
//! decodes to, for every response kind and every whole-frame error, and
//! decode to the right answers: answered in process through
//! `ExchangeServer::answer`, and over a live connection.

use np_models::transfer::TransferModel;
use np_serve::loadgen::machine_sets;
use np_serve::proto::{
    IndicatorKey, IndicatorSet, PredictReq, PutReply, QueryReq, Request, RequestFrame, Response,
    ResponseFrame,
};
use np_serve::ExchangeServer;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

const SEED: u64 = 3;

fn key(machine: &str, param: u64) -> IndicatorKey {
    IndicatorKey {
        machine: machine.to_string(),
        program: "synthetic-stride".to_string(),
        param,
    }
}

fn exact(machine: &str, param: u64) -> QueryReq {
    QueryReq {
        program: Some("synthetic-stride".to_string()),
        param: Some(param),
        ..QueryReq::machine(machine)
    }
}

fn line(requests: Vec<Request>) -> String {
    serde_json::to_string(&RequestFrame::new(requests)).unwrap()
}

/// A server holding both synthetic machines' 48 sets.
fn seeded_server() -> ExchangeServer {
    let server = ExchangeServer::new(8, 16).with_workers(1);
    for machine in ["host-a", "host-b"] {
        for set in machine_sets(machine, SEED) {
            server.store().put(set);
        }
    }
    server
}

/// What a reply's responses must be.
type Check = Box<dyn Fn(&[Response]) -> bool>;

/// Request lines that together draw every response kind and every
/// whole-frame error, each with the check of its reply, in the order they
/// are sent to a [`seeded_server`].
fn cases() -> Vec<(&'static str, String, Check)> {
    let host_a = machine_sets("host-a", SEED);
    let host_b = machine_sets("host-b", SEED);
    let pairs: Vec<_> = host_b
        .iter()
        .map(|s| (s.indicators.clone(), s.cycles))
        .collect();
    let model = TransferModel::fit(&pairs).unwrap();
    let cost = model.predict(&host_a[3].indicators).unwrap();
    let predict = Request::Predict(PredictReq {
        source: key("host-a", 3),
        target_machine: "host-b".to_string(),
    });
    let sets = |want: Vec<IndicatorSet>| -> Check {
        Box::new(move |r: &[Response]| matches!(r, [Response::Sets(s)] if s.sets == want))
    };
    let frame_error = |needle: &'static str| -> Check {
        Box::new(move |r: &[Response]| matches!(r, [Response::Error(e)] if e.contains(needle)))
    };
    let mut wrong_version = RequestFrame::new(vec![Request::Stats]);
    wrong_version.version = 99;
    vec![
        (
            "put",
            line(vec![Request::Put(host_a[0].clone())]),
            Box::new(|r: &[Response]| {
                r == [Response::Put(PutReply {
                    replaced: true,
                    generation: 97,
                })]
            }),
        ),
        (
            "no sets",
            line(vec![Request::Query(QueryReq::machine("absent"))]),
            sets(Vec::new()),
        ),
        (
            "one set",
            line(vec![Request::Query(exact("host-b", 5))]),
            sets(host_b[5..6].to_vec()),
        ),
        (
            "48 sets",
            line(vec![Request::Query(QueryReq::machine("host-a"))]),
            sets(host_a.clone()),
        ),
        (
            "cost",
            line(vec![predict.clone()]),
            Box::new(move |r: &[Response]| {
                matches!(r, [Response::Cost(c)]
                    if c.cost.to_bits() == cost.to_bits()
                        && c.r_squared.to_bits() == model.r_squared.to_bits()
                        && c.training_sets == 48
                        && !c.cached)
            }),
        ),
        (
            "stats",
            line(vec![Request::Stats]),
            Box::new(
                |r: &[Response]| matches!(r, [Response::Stats(s)] if s.sets == 96 && s.generation == 97),
            ),
        ),
        (
            "per-request error",
            line(vec![
                Request::Predict(PredictReq {
                    source: key("absent", 0),
                    target_machine: "host-b".to_string(),
                }),
                Request::Query(exact("host-a", 1)),
            ]),
            Box::new(move |r: &[Response]| {
                matches!(r, [Response::Error(e), Response::Sets(s)]
                    if e.contains("unknown source set absent/synthetic-stride/0")
                        && s.sets == host_a[1..2])
            }),
        ),
        (
            "every kind in one frame",
            line(vec![
                Request::Query(exact("host-b", 9)),
                Request::Put(host_b[9].clone()),
                predict,
                Request::Stats,
            ]),
            Box::new(move |r: &[Response]| {
                matches!(r, [Response::Sets(s), Response::Put(p), Response::Cost(c), Response::Stats(_)]
                    if s.sets == host_b[9..10] && p.replaced && c.cached)
            }),
        ),
        (
            "malformed",
            "this is not json".to_string(),
            frame_error("malformed frame"),
        ),
        (
            "wrong version",
            serde_json::to_string(&wrong_version).unwrap(),
            frame_error("protocol version 99 not supported"),
        ),
        (
            "oversized batch",
            line(vec![Request::Stats; 257]),
            frame_error("frame batches 257 requests (limit 256)"),
        ),
    ]
}

/// Sends every case through `send` and checks each reply line.
fn check_every_reply(mut send: impl FnMut(&str) -> String) {
    for (name, request, check) in cases() {
        let reply = send(&request);
        let frame: ResponseFrame = serde_json::from_str(&reply)
            .unwrap_or_else(|e| panic!("{name}: reply does not decode: {e}"));
        assert_eq!(
            reply,
            serde_json::to_string(&frame).unwrap(),
            "{name}: reply bytes"
        );
        let errors = frame
            .responses
            .iter()
            .any(|r| matches!(r, Response::Error(_)));
        assert_eq!(frame.degraded, errors, "{name}: degraded flag");
        assert!(check(&frame.responses), "{name}: {:?}", frame.responses);
    }
}

#[test]
fn in_process_replies_are_the_bytes_of_their_decoded_frames() {
    let server = seeded_server();
    check_every_reply(|line| server.answer(line));
}

#[test]
fn live_replies_are_the_bytes_of_their_decoded_frames() {
    let handle = seeded_server()
        .start(ExchangeServer::bind().expect("bind"))
        .expect("start");
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    check_every_reply(|line| {
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply
            .strip_suffix('\n')
            .expect("one whole line")
            .to_string()
    });
    drop((reader, writer));
    handle.stop();
}
