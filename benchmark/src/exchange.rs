//! `exchange`: an in-process exchange server under two closed-loop client
//! sessions replaying a seeded frame mix. The only workload on serve and
//! models; it has no simulator.
//!
//! Each session waits for its reply before sending the next frame. The
//! mix, in every block of eight frames of a session, shuffled by the seed:
//! three predicts host-a→host-b over six rotating sources, two exact-key
//! queries on host-b, two machine-wide queries on host-a (48 sets each)
//! and one put. Puts re-publish content already stored: three in four a
//! host-c set, one in four a host-b set. So the store size and every
//! correct answer stay constant, while each put still bumps the store
//! generation the prediction cache keys on.
//!
//! Each session rotates over six sources of its own. A source comes back
//! after six predicts, which span a whole block and so the session's own
//! put: while any put bumps the generation, no predict hits the cache, and
//! the share of slow frames does not depend on how the sessions interleave.

use crate::layers::{Layers, Mean};
use crate::measure::{ns_since, Log};
use crate::Bench;
use np_models::transfer::TransferModel;
use np_serve::proto::SetsReply;
use np_serve::{
    ClientLimits, ClientSession, CostReply, ExchangeServer, IndicatorKey, IndicatorSet, PredictReq,
    QueryReq, Request, RequestFrame, Response, ResponseFrame, ServerHandle, ShardedStore,
};
use np_simulator::HwEvent;
use std::collections::BTreeMap;
use std::time::Instant;

const SHARDS: usize = 8;
const CACHE_CAPACITY: usize = 128;
/// Server workers; each serves one persistent connection at a time, so
/// it equals the number of client sessions.
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
const SETS_PER_HOST: u64 = 48;
const HOST_C_SETS: u64 = 16;
const SOURCES: u64 = 6;
/// Frames each session sends per pass.
pub const FRAMES_PER_CLIENT: usize = 1000;
/// Frames of the first session's sequence the traced run probes in process.
const PROBE_FRAMES: usize = 256;
const PROGRAM: &str = "synthetic-stride";

/// Events every synthetic indicator set carries: enough features that
/// the transfer fit does real work.
const EVENTS: [HwEvent; 18] = [
    HwEvent::Instructions,
    HwEvent::StallCycles,
    HwEvent::MemStallCycles,
    HwEvent::L1dHit,
    HwEvent::L1dMiss,
    HwEvent::L1dEvict,
    HwEvent::L2Hit,
    HwEvent::L2Miss,
    HwEvent::L2PrefetchReq,
    HwEvent::L3Access,
    HwEvent::L3Hit,
    HwEvent::L3Miss,
    HwEvent::FillBufferAlloc,
    HwEvent::FillBufferReject,
    HwEvent::DtlbHit,
    HwEvent::DtlbMiss,
    HwEvent::PageWalkCycles,
    HwEvent::BranchRetired,
];

/// Frame kinds of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Predict,
    ExactQuery,
    MachineQuery,
    Put,
}

const KINDS: [Kind; 4] = [
    Kind::Predict,
    Kind::ExactQuery,
    Kind::MachineQuery,
    Kind::Put,
];

/// One block of the mix, before shuffling.
const BLOCK: [Kind; 8] = [
    Kind::Predict,
    Kind::Predict,
    Kind::Predict,
    Kind::ExactQuery,
    Kind::ExactQuery,
    Kind::MachineQuery,
    Kind::MachineQuery,
    Kind::Put,
];

/// What a correct reply to a frame holds.
#[derive(Debug, Clone, Copy)]
enum Expect {
    Cost(f64),
    HostB(usize),
    AllHostA,
    Put,
}

/// One frame of a session's sequence.
struct Frame {
    kind: Kind,
    request: RequestFrame,
    expect: Expect,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A synthetic indicator set whose cost is an exact linear form of its
/// indicators, with per-machine coefficients drawn from the seed.
pub fn synth_set(machine: &str, param: u64, seed: u64) -> IndicatorSet {
    let mut coeffs = seed ^ np_serve::proto::fnv1a64(machine.as_bytes()) | 1;
    let mut values = seed ^ param.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut cost = 5_000.0 + (xorshift(&mut coeffs) % 1000) as f64;
    let mut indicators = BTreeMap::new();
    for event in EVENTS {
        let beta = 1.0 + (xorshift(&mut coeffs) % 97) as f64 / 4.0;
        let value = 100.0 + (xorshift(&mut values) % 90_000) as f64;
        cost += beta * value;
        indicators.insert(event, value);
    }
    IndicatorSet {
        key: key(machine, param),
        seed,
        cycles: cost,
        indicators,
        memhist: None,
        phases: None,
    }
}

fn key(machine: &str, param: u64) -> IndicatorKey {
    IndicatorKey {
        machine: machine.to_string(),
        program: PROGRAM.to_string(),
        param,
    }
}

fn host_sets(machine: &str, count: u64, seed: u64) -> Vec<IndicatorSet> {
    (0..count).map(|p| synth_set(machine, p, seed)).collect()
}

/// The exchange fixture: a running server, its client sessions and the
/// seeded sets it was loaded with.
pub struct Exchange {
    seed: u64,
    sessions: Vec<ClientSession>,
    server: Option<ServerHandle>,
    host_a: Vec<IndicatorSet>,
    host_b: Vec<IndicatorSet>,
    host_c: Vec<IndicatorSet>,
    sequences: Vec<Vec<Frame>>,
    /// Client round trips per frame kind during traced passes.
    rtt: [Mean; 4],
}

impl Exchange {
    /// Boots the server, seeds it with every host's sets and connects
    /// the client sessions.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let server = ExchangeServer::new(SHARDS, CACHE_CAPACITY).with_workers(WORKERS);
        let listener = ExchangeServer::bind().map_err(|e| format!("bind: {e}"))?;
        let handle = server.start(listener).map_err(|e| format!("start: {e}"))?;
        let mut exchange = Exchange {
            seed,
            sessions: Vec::new(),
            server: Some(handle),
            host_a: host_sets("host-a", SETS_PER_HOST, seed),
            host_b: host_sets("host-b", SETS_PER_HOST, seed),
            host_c: host_sets("host-c", HOST_C_SETS, seed),
            sequences: Vec::new(),
            rtt: [Mean::default(); 4],
        };
        let addr = exchange.server.as_ref().map(ServerHandle::addr);
        for _ in 0..CLIENTS {
            let session =
                ClientSession::connect(addr.ok_or("no server")?, &ClientLimits::default())
                    .map_err(|e| format!("connect: {e}"))?;
            exchange.sessions.push(session);
        }
        for sets in [&exchange.host_a, &exchange.host_b, &exchange.host_c] {
            exchange.sessions[0]
                .put(sets.clone())
                .map_err(|e| format!("seeding: {e}"))?;
        }
        Ok(exchange)
    }

    /// Sets the store should hold at every point of a run.
    pub fn expected_sets(&self) -> u64 {
        (self.host_a.len() + self.host_b.len() + self.host_c.len()) as u64
    }

    /// Current store size and cache hits and misses, from a `Stats` frame.
    pub fn stats(&mut self) -> Result<(u64, u64, u64), String> {
        let s = self.sessions[0]
            .stats()
            .map_err(|e| format!("stats: {e}"))?;
        Ok((s.sets, s.cache_hits, s.cache_misses))
    }

    /// The seeded frame sequence of session `client`.
    fn sequence(&self, client: usize, model: &TransferModel) -> Result<Vec<Frame>, String> {
        let mut rng = (self.seed ^ (client as u64 + 1).wrapping_mul(0x2545_f491_4f6c_dd1d)) | 1;
        let mut frames = Vec::with_capacity(FRAMES_PER_CLIENT);
        let (mut predicts, mut puts) = (0u64, 0u64);
        while frames.len() < FRAMES_PER_CLIENT {
            let mut block = BLOCK;
            for i in (1..block.len()).rev() {
                block.swap(i, (xorshift(&mut rng) % (i as u64 + 1)) as usize);
            }
            for kind in block {
                let (request, expect) = match kind {
                    Kind::Predict => {
                        let source = client as u64 * SOURCES + predicts % SOURCES;
                        predicts += 1;
                        let cost = model
                            .predict(&self.host_a[source as usize].indicators)
                            .ok_or("the reference model cannot price a source")?;
                        (
                            Request::Predict(PredictReq {
                                source: key("host-a", source),
                                target_machine: "host-b".to_string(),
                            }),
                            Expect::Cost(cost),
                        )
                    }
                    Kind::ExactQuery => {
                        let p = xorshift(&mut rng) % SETS_PER_HOST;
                        (
                            Request::Query(QueryReq {
                                machine: Some("host-b".to_string()),
                                program: Some(PROGRAM.to_string()),
                                param: Some(p),
                            }),
                            Expect::HostB(p as usize),
                        )
                    }
                    Kind::MachineQuery => (
                        Request::Query(QueryReq::machine("host-a")),
                        Expect::AllHostA,
                    ),
                    Kind::Put => {
                        puts += 1;
                        let set = if puts % 4 == 0 {
                            &self.host_b[(xorshift(&mut rng) % SETS_PER_HOST) as usize]
                        } else {
                            &self.host_c[(xorshift(&mut rng) % HOST_C_SETS) as usize]
                        };
                        (Request::Put(set.clone()), Expect::Put)
                    }
                };
                frames.push(Frame {
                    kind,
                    request: RequestFrame::new(vec![request]),
                    expect,
                });
            }
        }
        frames.truncate(FRAMES_PER_CLIENT);
        Ok(frames)
    }

    /// Whether a reply is the correct answer.
    fn correct(
        expect: Expect,
        reply: &ResponseFrame,
        host_a: &[IndicatorSet],
        host_b: &[IndicatorSet],
    ) -> bool {
        match (expect, reply.responses.as_slice()) {
            (Expect::Cost(cost), [Response::Cost(c)]) => c.cost.to_bits() == cost.to_bits(),
            (Expect::HostB(p), [Response::Sets(s)]) => s.sets == host_b[p..=p],
            (Expect::AllHostA, [Response::Sets(s)]) => s.sets == host_a,
            (Expect::Put, [Response::Put(_)]) => true,
            _ => false,
        }
    }

    /// Answers one request frame in process, as the server would, timing
    /// each layer. Returns the host ns of decode, handle and encode.
    fn probe_frame(
        store: &ShardedStore,
        frame: &Frame,
        layers: &mut Layers,
    ) -> Result<u64, String> {
        let line = serde_json::to_string(&frame.request).map_err(|e| e.to_string())?;
        let started = Instant::now();
        let decoded: RequestFrame = serde_json::from_str(&line).map_err(|e| e.to_string())?;
        layers.decode.add(ns_since(started));
        let mut responses = Vec::new();
        for request in decoded.requests {
            responses.push(match request {
                Request::Put(set) => {
                    let t = Instant::now();
                    let reply = store.put(set);
                    layers.store_put.add(ns_since(t));
                    Response::Put(reply)
                }
                Request::Query(q) => {
                    let t = Instant::now();
                    let found = store.query_batch(std::slice::from_ref(&q));
                    layers.store_query.add(ns_since(t));
                    Response::Sets(SetsReply {
                        sets: found.iter().flatten().map(|s| (**s).clone()).collect(),
                    })
                }
                Request::Predict(req) => {
                    let source = store.get(&req.source).ok_or("probe: unknown source")?;
                    let t = Instant::now();
                    std::hint::black_box(source.digest());
                    layers.digest.add(ns_since(t));
                    let pairs = store.training_pairs(&req.target_machine);
                    let t = Instant::now();
                    let model = TransferModel::fit(&pairs).ok_or("probe: fit failed")?;
                    layers.fit.add(ns_since(t));
                    Response::Cost(CostReply {
                        cost: model.predict(&source.indicators).unwrap_or_default(),
                        r_squared: model.r_squared,
                        features: model
                            .features
                            .iter()
                            .map(|e| e.name().to_string())
                            .collect(),
                        training_sets: pairs.len() as u64,
                        cached: false,
                    })
                }
                Request::Stats => return Err("probe: no stats frames in the mix".to_string()),
            });
        }
        let t = Instant::now();
        std::hint::black_box(
            serde_json::to_string(&ResponseFrame::new(responses)).map_err(|e| e.to_string())?,
        );
        layers.encode.add(ns_since(t));
        Ok(ns_since(started))
    }
}

impl Drop for Exchange {
    fn drop(&mut self) {
        // Close the sessions first: each server worker is bound to one
        // connection until its peer closes it.
        self.sessions.clear();
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

impl Bench for Exchange {
    fn nominal_pass_s(&self) -> f64 {
        0.6
    }

    fn prepare(&mut self, _trace: Option<&mut Layers>) -> Result<(), String> {
        // The client-side reference fit every predicted cost must equal.
        let pairs: Vec<_> = self
            .host_b
            .iter()
            .map(|s| (s.indicators.clone(), s.cycles))
            .collect();
        let model = TransferModel::fit(&pairs).ok_or("the reference fit failed")?;
        self.sequences = (0..CLIENTS)
            .map(|c| self.sequence(c, &model))
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    fn pass(&mut self, log: &mut Log, trace: Option<&mut Layers>) {
        let cache_before = match trace {
            Some(_) => self.stats().ok(),
            None => None,
        };
        let (host_a, host_b) = (&self.host_a, &self.host_b);
        let timed: Vec<Vec<(Kind, u64, bool)>> = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .sessions
                .iter_mut()
                .zip(&self.sequences)
                .map(|(session, frames)| {
                    scope.spawn(move || {
                        frames
                            .iter()
                            .map(|frame| {
                                let started = Instant::now();
                                let reply = session.roundtrip(&frame.request);
                                let ns = ns_since(started);
                                let ok = reply
                                    .is_ok_and(|r| Self::correct(frame.expect, &r, host_a, host_b));
                                (frame.kind, ns, ok)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap_or_default())
                .collect()
        });
        let mut frames = 0u64;
        for &(kind, ns, ok) in timed.iter().flatten() {
            log.record(ns as f64 / 1e3, ok);
            frames += 1;
            if trace.is_some() {
                self.rtt[kind as usize].add(ns);
            }
        }
        // A session thread that panicked sent fewer frames than planned.
        let missing = (CLIENTS * FRAMES_PER_CLIENT) as u64 - frames;
        log.attempted += missing;
        log.failed += missing;
        let expected = self.expected_sets();
        let after = self.stats();
        log.check(after.as_ref().is_ok_and(|&(sets, _, _)| sets == expected));
        if let (Some(layers), Some((_, hits0, misses0)), Ok((_, hits, misses))) =
            (trace, cache_before, after)
        {
            layers.cache_hits += hits - hits0;
            layers.cache_lookups += hits + misses - hits0 - misses0;
        }
    }

    fn probe(&mut self, layers: &mut Layers) -> Result<(), String> {
        let store = ShardedStore::new(SHARDS);
        for set in self.host_a.iter().chain(&self.host_b).chain(&self.host_c) {
            store.put(set.clone());
        }
        let mut in_process = [Mean::default(); 4];
        for frame in self.sequences[0].iter().take(PROBE_FRAMES) {
            in_process[frame.kind as usize].add(Self::probe_frame(&store, frame, layers)?);
        }
        for kind in KINDS {
            let (rtt, local) = (self.rtt[kind as usize], in_process[kind as usize]);
            if rtt.calls > 0 && local.calls > 0 {
                let per_frame = (rtt.per_call(1.0) - local.per_call(1.0)).max(0.0);
                layers.transport.ns += (per_frame * rtt.calls as f64) as u64;
                layers.transport.calls += rtt.calls;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_sets_are_seeded_and_linear() {
        assert_eq!(synth_set("host-a", 3, 9), synth_set("host-a", 3, 9));
        assert_ne!(synth_set("host-a", 3, 9), synth_set("host-a", 3, 10));
        let pairs: Vec<_> = host_sets("host-b", SETS_PER_HOST, 9)
            .into_iter()
            .map(|s| (s.indicators, s.cycles))
            .collect();
        assert!(TransferModel::fit(&pairs).unwrap().r_squared > 0.9999);
    }

    #[test]
    fn the_mix_keeps_the_store_size_constant_and_every_answer_correct() {
        let mut exchange = Exchange::setup(5).unwrap();
        exchange.prepare(None).unwrap();
        let expected = exchange.expected_sets();
        assert_eq!(exchange.stats().unwrap().0, expected);
        let puts = exchange.sequences[0]
            .iter()
            .filter(|f| f.kind == Kind::Put)
            .count();
        assert_eq!(puts, FRAMES_PER_CLIENT / 8);
        let mut log = Log::default();
        for _ in 0..2 {
            exchange.pass(&mut log, None);
            assert_eq!(exchange.stats().unwrap().0, expected);
        }
        assert_eq!(log.frame_us.len(), 2 * CLIENTS * FRAMES_PER_CLIENT);
        assert_eq!(log.failed, 0, "{log:?}");
    }

    #[test]
    fn each_session_predicts_six_sources_of_its_own() {
        let mut exchange = Exchange::setup(3).unwrap();
        exchange.prepare(None).unwrap();
        let sources: Vec<std::collections::BTreeSet<u64>> = exchange
            .sequences
            .iter()
            .map(|frames| {
                frames
                    .iter()
                    .filter_map(|f| match f.request.requests.as_slice() {
                        [Request::Predict(p)] => Some(p.source.param),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        assert!(sources.iter().all(|s| s.len() == SOURCES as usize));
        assert!(sources[0].is_disjoint(&sources[1]));
    }
}
