//! The calibrated-model cache, end to end through a live server: which
//! writes leave a target's model cached, which force a refit, and that
//! every predicted cost bit-equals a fresh client-side `TransferModel::fit`
//! of the content it was priced on.
//!
//! Calibrations are counted by the process-global `serve.model.fits`
//! telemetry counter, so every test here holds one lock and reads the
//! counter as a before/after delta.

use np_models::transfer::TransferModel;
use np_serve::proto::{CostReply, IndicatorKey, IndicatorSet, PredictReq};
use np_serve::{ClientLimits, ClientSession, ExchangeServer, ServerHandle};
use np_simulator::HwEvent;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::{Barrier, Mutex, MutexGuard};

const SETS: u64 = 12;
const EVENTS: [HwEvent; 3] = [HwEvent::L1dMiss, HwEvent::L3Miss, HwEvent::DtlbMiss];

fn serialized() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    np_telemetry::set_enabled(true);
    guard
}

fn fits() -> u64 {
    np_telemetry::global().counter("serve.model.fits").get()
}

/// A set whose cost is a linear form of independently varied indicators;
/// `variant` shifts the cost, giving the same key different content.
fn set(machine: &str, param: u64, variant: u64) -> IndicatorSet {
    let mut state = param.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut indicators = BTreeMap::new();
    let mut cycles = 1_000.0 + 250.0 * variant as f64;
    for (i, event) in EVENTS.into_iter().enumerate() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let value = 10.0 + (state % 5_000) as f64;
        cycles += (i as f64 + 2.0) * value;
        indicators.insert(event, value);
    }
    IndicatorSet {
        key: key(machine, param),
        seed: variant,
        cycles,
        indicators,
        memhist: None,
        phases: None,
    }
}

fn key(machine: &str, param: u64) -> IndicatorKey {
    IndicatorKey {
        machine: machine.to_string(),
        program: "synthetic".to_string(),
        param,
    }
}

/// The host-b training content: every set at variant 0 except `changed`.
fn host_b(changed: Option<(u64, u64)>) -> Vec<IndicatorSet> {
    (0..SETS)
        .map(|p| match changed {
            Some((param, variant)) if param == p => set("host-b", p, variant),
            _ => set("host-b", p, 0),
        })
        .collect()
}

/// The cost a fresh fit of `training` (in key order) gives host-a's
/// set `source`.
fn fresh_cost(training: &[IndicatorSet], source: u64) -> f64 {
    let pairs: Vec<_> = training
        .iter()
        .map(|s| (s.indicators.clone(), s.cycles))
        .collect();
    TransferModel::fit(&pairs)
        .and_then(|m| m.predict(&set("host-a", source, 0).indicators))
        .expect("the synthetic content calibrates")
}

/// Stops the server when dropped.
struct Running(Option<ServerHandle>);

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(handle) = self.0.take() {
            handle.stop();
        }
    }
}

struct Exchange {
    addr: SocketAddr,
    // Declared before the server: a worker serves one connection until
    // its peer closes it, so the session must close before the stop.
    session: ClientSession,
    _server: Running,
}

impl Exchange {
    /// A fresh server holding host-a's sources and host-b's training sets.
    fn boot(workers: usize) -> Exchange {
        let server = ExchangeServer::new(4, 16).with_workers(workers);
        let handle = server.start(ExchangeServer::bind().unwrap()).unwrap();
        let addr = handle.addr();
        let mut session = connect(addr);
        session
            .put((0..SETS).map(|p| set("host-a", p, 0)).collect())
            .unwrap();
        session.put(host_b(None)).unwrap();
        Exchange {
            addr,
            session,
            _server: Running(Some(handle)),
        }
    }

    fn predict(&mut self, source: u64) -> CostReply {
        predict(&mut self.session, source)
    }

    fn put(&mut self, set: IndicatorSet) {
        self.session.put(vec![set]).unwrap();
    }
}

fn connect(addr: SocketAddr) -> ClientSession {
    ClientSession::connect(addr, &ClientLimits::default()).unwrap()
}

fn predict(session: &mut ClientSession, source: u64) -> CostReply {
    session
        .predict(PredictReq {
            source: key("host-a", source),
            target_machine: "host-b".to_string(),
        })
        .unwrap()
}

#[test]
fn identical_republish_keeps_the_model_cached() {
    let _lock = serialized();
    let mut ex = Exchange::boot(1);
    let fits0 = fits();
    let cold = ex.predict(1);
    assert!(!cold.cached);
    ex.put(set("host-b", 4, 0));
    let warm = ex.predict(1);
    assert!(warm.cached, "an identical re-publish invalidated the model");
    assert_eq!(warm.cost.to_bits(), cold.cost.to_bits());
    assert_eq!(fits() - fits0, 1);
}

#[test]
fn a_put_to_another_machine_keeps_the_model_cached() {
    let _lock = serialized();
    let mut ex = Exchange::boot(1);
    let fits0 = fits();
    let cold = ex.predict(2);
    ex.put(set("host-c", 0, 0));
    ex.put(set("host-a", 7, 3));
    let warm = ex.predict(2);
    assert!(
        warm.cached,
        "a put to another machine invalidated the model"
    );
    assert_eq!(warm.cost.to_bits(), cold.cost.to_bits());
    assert_eq!(fits() - fits0, 1);
}

#[test]
fn a_content_change_refits_to_a_fresh_fit() {
    let _lock = serialized();
    let mut ex = Exchange::boot(1);
    let fits0 = fits();
    let before = ex.predict(3);
    ex.put(set("host-b", 5, 1));
    let after = ex.predict(3);
    assert!(!after.cached, "a content change served the old model");
    assert_eq!(
        after.cost.to_bits(),
        fresh_cost(&host_b(Some((5, 1))), 3).to_bits()
    );
    assert_ne!(after.cost.to_bits(), before.cost.to_bits());
    assert_eq!(fits() - fits0, 2);
}

#[test]
fn returning_to_earlier_content_hits_its_model() {
    let _lock = serialized();
    let mut ex = Exchange::boot(1);
    let fits0 = fits();
    let a = ex.predict(4);
    ex.put(set("host-b", 6, 1));
    let b = ex.predict(4);
    assert!(!b.cached);
    ex.put(set("host-b", 6, 0));
    let again = ex.predict(4);
    assert!(again.cached, "content A's model was not reused");
    assert_eq!(again.cost.to_bits(), fresh_cost(&host_b(None), 4).to_bits());
    assert_eq!(again.cost.to_bits(), a.cost.to_bits());
    assert_eq!(fits() - fits0, 2, "one fit per distinct training content");
}

#[test]
fn sources_on_one_target_share_one_fit() {
    let _lock = serialized();
    let mut ex = Exchange::boot(1);
    let fits0 = fits();
    let first = ex.predict(0);
    let second = ex.predict(9);
    assert!(!first.cached);
    assert!(second.cached, "the second source refitted");
    assert_eq!(first.cost.to_bits(), fresh_cost(&host_b(None), 0).to_bits());
    assert_eq!(
        second.cost.to_bits(),
        fresh_cost(&host_b(None), 9).to_bits()
    );
    assert_eq!(second.training_sets, SETS);
    assert_eq!(fits() - fits0, 1);
}

/// Writers flip one host-b set between two contents while readers
/// predict: every cost must be the fit of one whole state, never of a
/// mix, however the writes and the cache interleave. Afterwards each
/// state, set in turn, must price exactly as its own fit, so no model
/// was cached under the other state's fingerprint. Such a mislabel can
/// only arise on a miss, and misses cluster at a cold start, so the
/// storm runs on several fresh servers.
#[test]
fn concurrent_flips_only_ever_price_a_whole_state() {
    const ROUNDS: usize = 5;
    const FLIPS: u64 = 200;
    const PREDICTS: u64 = 200;
    let _lock = serialized();
    let states = [host_b(None), host_b(Some((8, 1)))];
    let allowed: Vec<[u64; 2]> = (0..SETS)
        .map(|s| [0, 1].map(|i| fresh_cost(&states[i], s).to_bits()))
        .collect();
    assert!(
        allowed.iter().all(|[x, y]| x != y),
        "the states price alike"
    );

    for round in 0..ROUNDS {
        // Five workers: the seeding session holds one, the two flippers
        // and two readers one each.
        let mut ex = Exchange::boot(5);
        let start = Barrier::new(4);
        std::thread::scope(|scope| {
            for writer in 0..2u64 {
                let mut session = connect(ex.addr);
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    for flip in 0..FLIPS {
                        session
                            .put(vec![set("host-b", 8, (flip + writer) % 2)])
                            .unwrap();
                    }
                });
            }
            for reader in 0..2u64 {
                let mut session = connect(ex.addr);
                let (allowed, start) = (&allowed, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..PREDICTS {
                        let source = (i + reader) % SETS;
                        let cost = predict(&mut session, source).cost.to_bits();
                        assert!(
                            allowed[source as usize].contains(&cost),
                            "round {round}, source {source}: cost fits neither state"
                        );
                    }
                });
            }
        });

        for state in [1, 0] {
            ex.put(set("host-b", 8, state));
            for source in 0..SETS {
                let cost = ex.predict(source).cost.to_bits();
                assert_eq!(
                    cost, allowed[source as usize][state as usize],
                    "round {round}, state {state}, source {source}"
                );
            }
        }
    }
}
