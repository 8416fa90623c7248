//! Seeded load generator and benchmark driver for the exchange.
//!
//! The run is deterministic end-to-end (xorshift-seeded synthetic
//! machines with a *known* linear cost structure) so its correctness
//! checks are exact, while the timing numbers reflect the real server:
//!
//! 1. **seed** — publish indicator sets for two synthetic machines;
//! 2. **cold/warm predict** — time the same cross-machine `predict`
//!    uncached and cached, giving the cache-hit speedup. The server
//!    caches calibrations by training content, so the cold predict is
//!    only cold on a server that has not seen this seed's sets: a repeat
//!    run against the same server is refused with that cause;
//! 3. **audit** — refit the transfer model client-side from queried sets
//!    and check the server's transferred cost matches the direct
//!    `np-models` evaluation (the fit is deterministic, so they must);
//! 4. **hammer** — N concurrent sessions issue mixed batched frames
//!    (queries, predicts, puts) and every protocol or server error is
//!    counted.
//!
//! `np loadgen` writes the summary to `BENCH_serve.json` as a one-cell
//! np-bench/1 report (`np_bench::harness::loadgen_report`), which `np
//! bench diff` and `trend` read, and `--smoke` gates CI on the
//! invariants that must not flake: zero errors, cache hits observed,
//! audit passed.

use crate::client::{ClientError, ExchangeClient};
use crate::meta::BenchMeta;
use crate::proto::{IndicatorKey, IndicatorSet, PredictReq, QueryReq, Request, Response};
use np_models::transfer::TransferModel;
use np_simulator::HwEvent;
use std::collections::BTreeMap;
use std::time::Instant;

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Exchange address to hammer.
    pub addr: String,
    /// Concurrent client sessions in the hammer phase.
    pub clients: usize,
    /// Frames each session sends.
    pub frames_per_client: usize,
    /// Seed of the synthetic workload.
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: String::new(),
            clients: 8,
            frames_per_client: 40,
            seed: 0x10ad,
        }
    }
}

/// What a load run measured. `np loadgen` writes it to
/// `BENCH_serve.json` as a one-cell np-bench/1 report.
#[derive(Debug, Clone)]
pub struct LoadSummary {
    /// Provenance of the run (host, threads, commit) — the schema block
    /// shared with every np-bench/1 report.
    pub meta: BenchMeta,
    /// Seed the synthetic workload ran with.
    pub seed: u64,
    /// Concurrent sessions in the hammer phase.
    pub clients: u64,
    /// Frames sent across all phases.
    pub frames: u64,
    /// Individual requests sent across all phases.
    pub requests: u64,
    /// Protocol or server errors observed (must be 0 for a clean run).
    pub errors: u64,
    /// Response frames flagged degraded.
    pub degraded_frames: u64,
    /// Hammer-phase wall time, milliseconds.
    pub hammer_ms: f64,
    /// Hammer-phase throughput, frames per second.
    pub frames_per_sec: f64,
    /// Cold (uncached) cross-machine predict latency, microseconds.
    pub cold_predict_micros: f64,
    /// Warm (cached) predict latency, microseconds (mean over repeats).
    pub warm_predict_micros: f64,
    /// cold / warm — the cache-hit speedup.
    pub cache_speedup: f64,
    /// Server-reported cache hits at the end of the run.
    pub cache_hits: u64,
    /// Server-reported cache misses.
    pub cache_misses: u64,
    /// Server-reported cache evictions.
    pub cache_evictions: u64,
    /// Whether the server's transferred cost matched the client-side
    /// `np-models` evaluation on the same data.
    pub transfer_consistent: bool,
    /// Relative difference of that audit (0 when bit-identical).
    pub transfer_rel_diff: f64,
    /// Sets stored on the server at the end of the run.
    pub stored_sets: u64,
    /// Width of one server rate-window interval, milliseconds.
    pub window_interval_ms: u64,
    /// Server-side requests served per retained interval, oldest first.
    pub window_ops: Vec<u64>,
    /// Server-side cache hits per retained interval.
    pub window_hits: Vec<u64>,
    /// Server-side cache misses per retained interval.
    pub window_misses: Vec<u64>,
}

impl LoadSummary {
    /// The invariants CI gates on: no errors, the cache was exercised,
    /// and the cross-machine transfer audit passed. Latency and speedup
    /// numbers are reported but not gated (they flake under CI noise).
    pub fn smoke_ok(&self) -> bool {
        self.errors == 0 && self.cache_hits > 0 && self.transfer_consistent
    }

    /// Renders the server's rolling rate window as an aligned text table
    /// (one row per retained interval: ops, ops/s, cache hit rate) — the
    /// `np loadgen` rate table.
    pub fn rate_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>8}  {:>8}  {:>10}  {:>6}  {:>6}  {:>8}\n",
            "interval", "ops", "ops/s", "hits", "misses", "hit-rate"
        ));
        let interval_s = self.window_interval_ms as f64 / 1e3;
        for (i, &ops) in self.window_ops.iter().enumerate() {
            let hits = self.window_hits.get(i).copied().unwrap_or(0);
            let misses = self.window_misses.get(i).copied().unwrap_or(0);
            let lookups = hits + misses;
            let rate = if lookups > 0 {
                hits as f64 / lookups as f64
            } else {
                0.0
            };
            let ops_per_s = if interval_s > 0.0 {
                ops as f64 / interval_s
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:>8}  {:>8}  {:>10.0}  {:>6}  {:>6}  {:>7.0}%\n",
                format!("#{i}"),
                ops,
                ops_per_s,
                hits,
                misses,
                rate * 100.0
            ));
        }
        if self.window_ops.is_empty() {
            out.push_str("  (window empty)\n");
        }
        out
    }
}

/// Events every synthetic indicator set carries. Large enough that the
/// transfer fit does real work (the cache has something to save).
const EVENTS: &[HwEvent] = &[
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

/// Sets published per synthetic machine (well above the feature count so
/// the fit has slack for its observation-count guard).
const SETS_PER_MACHINE: u64 = 48;

/// Warm-predict repeats the latency mean is taken over.
const WARM_REPEATS: u32 = 32;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Per-machine cost coefficients, derived from the seed: cost =
/// β₀ + Σ βᵢ·indicatorᵢ, exactly the structure the transfer model fits.
fn machine_betas(machine: &str, seed: u64) -> Vec<f64> {
    let mut state = seed ^ crate::proto::fnv1a64(machine.as_bytes()) | 1;
    let mut betas = vec![5_000.0 + (xorshift(&mut state) % 1000) as f64];
    for _ in EVENTS {
        betas.push(1.0 + (xorshift(&mut state) % 97) as f64 / 4.0);
    }
    betas
}

/// A synthetic indicator set with independently varied indicator values
/// and a cost computed exactly from the machine's coefficient vector.
fn synth_set(machine: &str, param: u64, seed: u64) -> IndicatorSet {
    let betas = machine_betas(machine, seed);
    let mut state = seed ^ param.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut indicators: BTreeMap<HwEvent, f64> = BTreeMap::new();
    let mut cost = betas[0];
    for (i, &event) in EVENTS.iter().enumerate() {
        let value = 100.0 + (xorshift(&mut state) % 90_000) as f64;
        cost += betas[i + 1] * value;
        indicators.insert(event, value);
    }
    IndicatorSet {
        key: IndicatorKey {
            machine: machine.to_string(),
            program: "synthetic-stride".to_string(),
            param,
        },
        seed,
        cycles: cost,
        indicators,
        memhist: None,
        phases: None,
    }
}

/// All sets of one synthetic machine: 48 sets of 18 indicators each,
/// whose `Sets` reply is also the `np bench` JSON round-trip frame.
pub fn machine_sets(machine: &str, seed: u64) -> Vec<IndicatorSet> {
    (0..SETS_PER_MACHINE)
        .map(|param| synth_set(machine, param, seed))
        .collect()
}

/// Runs the whole benchmark against a live exchange at `config.addr`.
pub fn run(config: &LoadgenConfig) -> Result<LoadSummary, ClientError> {
    let client = ExchangeClient::new(config.addr.clone());
    let mut control = client.connect()?;
    let mut frames = 0u64;
    let mut requests = 0u64;

    // Phase 1: seed two machines' measurement campaigns.
    for machine in ["host-a", "host-b"] {
        let sets = machine_sets(machine, config.seed);
        requests += sets.len() as u64;
        frames += 1;
        control.put(sets)?;
    }

    // Phase 2: cold vs warm cross-machine predict.
    let predict_req = PredictReq {
        source: IndicatorKey {
            machine: "host-a".to_string(),
            program: "synthetic-stride".to_string(),
            param: 7,
        },
        target_machine: "host-b".to_string(),
    };
    let started = Instant::now();
    let cold = control.predict(predict_req.clone())?;
    let cold_predict_micros = started.elapsed().as_secs_f64() * 1e6;
    frames += 1;
    requests += 1;
    if cold.cached {
        // Models are cached by training content, so the server can only
        // hold this calibration if it already saw these very sets.
        return Err(ClientError::Protocol(format!(
            "first predict reported as cached: the server already holds the model \
             calibrated from host-b's seed-{} sets, so this repeats an earlier run against \
             the same long-lived server; rerun with another --seed or against a fresh server",
            config.seed
        )));
    }

    let started = Instant::now();
    let mut warm_cost = cold.cost;
    let mut warm_cached = true;
    for _ in 0..WARM_REPEATS {
        let warm = control.predict(predict_req.clone())?;
        warm_cached &= warm.cached;
        warm_cost = warm.cost;
        frames += 1;
        requests += 1;
    }
    let warm_predict_micros = started.elapsed().as_secs_f64() * 1e6 / WARM_REPEATS as f64;
    if !warm_cached {
        return Err(ClientError::Protocol(
            "repeat predict missed the cache".to_string(),
        ));
    }
    if warm_cost != cold.cost {
        return Err(ClientError::Protocol(
            "cached predict returned a different cost".to_string(),
        ));
    }

    // Phase 3: audit the transfer against direct np-models evaluation.
    let training = control.query(QueryReq::machine("host-b"))?;
    let source_sets = control.query(QueryReq {
        machine: Some("host-a".to_string()),
        program: Some("synthetic-stride".to_string()),
        param: Some(7),
    })?;
    frames += 2;
    requests += 2;
    let pairs: Vec<(BTreeMap<HwEvent, f64>, f64)> = training
        .iter()
        .map(|s| (s.indicators.clone(), s.cycles))
        .collect();
    let audit = TransferModel::fit(&pairs)
        .and_then(|m| source_sets.first().and_then(|s| m.predict(&s.indicators)));
    let (transfer_consistent, transfer_rel_diff) = match audit {
        Some(direct) => {
            let diff = (direct - cold.cost).abs() / direct.abs().max(1e-12);
            (diff < 1e-9, diff)
        }
        None => (false, f64::INFINITY),
    };

    // Phase 4: concurrent hammer — mixed batched frames. A barrier
    // aligns the client starts so the measured throughput window covers
    // N genuinely concurrent sessions, not a spawn-skewed ramp.
    let hammer_started = Instant::now();
    let start = std::sync::Arc::new(std::sync::Barrier::new(config.clients));
    let mut threads = Vec::with_capacity(config.clients);
    for worker in 0..config.clients {
        let client = ExchangeClient::new(config.addr.clone());
        let n_frames = config.frames_per_client;
        let seed = config.seed;
        let start = std::sync::Arc::clone(&start);
        threads.push(std::thread::spawn(move || -> (u64, u64, u64, u64) {
            start.wait();
            let mut session = match client.connect() {
                Ok(s) => s,
                Err(_) => return (0, 0, 1, 0),
            };
            let (mut frames, mut requests, mut errors, mut degraded) = (0u64, 0u64, 0u64, 0u64);
            for i in 0..n_frames {
                let batch: Vec<Request> = match i % 3 {
                    0 => vec![
                        Request::Query(QueryReq::machine("host-a")),
                        Request::Query(QueryReq {
                            machine: Some("host-b".to_string()),
                            program: None,
                            param: Some((i as u64) % SETS_PER_MACHINE),
                        }),
                        Request::Stats,
                    ],
                    1 => vec![Request::Predict(PredictReq {
                        // A small rotating set of sources so repeats hit
                        // the cache while distinct digests still occur.
                        source: IndicatorKey {
                            machine: "host-a".to_string(),
                            program: "synthetic-stride".to_string(),
                            param: ((worker + i) % 6) as u64,
                        },
                        target_machine: "host-b".to_string(),
                    })],
                    _ => vec![Request::Put(synth_set(
                        "host-c",
                        (worker * 10_000 + i) as u64,
                        seed,
                    ))],
                };
                requests += batch.len() as u64;
                frames += 1;
                match session.batch(batch) {
                    Ok(responses) => {
                        if responses.iter().any(|r| matches!(r, Response::Error(_))) {
                            errors += 1;
                            degraded += 1;
                        }
                    }
                    Err(_) => errors += 1,
                }
            }
            (frames, requests, errors, degraded)
        }));
    }
    let mut errors = 0u64;
    let mut degraded_frames = 0u64;
    for t in threads {
        match t.join() {
            Ok((f, r, e, d)) => {
                frames += f;
                requests += r;
                errors += e;
                degraded_frames += d;
            }
            Err(_) => errors += 1,
        }
    }
    let hammer_ms = hammer_started.elapsed().as_secs_f64() * 1e3;
    let hammer_frames = (config.clients * config.frames_per_client) as f64;
    let frames_per_sec = if hammer_ms > 0.0 {
        hammer_frames / (hammer_ms / 1e3)
    } else {
        0.0
    };

    // Final server-side tallies.
    let stats = control.stats()?;
    frames += 1;
    requests += 1;

    Ok(LoadSummary {
        meta: BenchMeta::collect("loadgen", config.clients, config.seed),
        seed: config.seed,
        clients: config.clients as u64,
        frames,
        requests,
        errors,
        degraded_frames,
        hammer_ms,
        frames_per_sec,
        cold_predict_micros,
        warm_predict_micros,
        cache_speedup: if warm_predict_micros > 0.0 {
            cold_predict_micros / warm_predict_micros
        } else {
            0.0
        },
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        cache_evictions: stats.cache_evictions,
        transfer_consistent,
        transfer_rel_diff,
        stored_sets: stats.sets,
        window_interval_ms: stats.window_interval_ms,
        window_ops: stats.window_ops,
        window_hits: stats.window_hits,
        window_misses: stats.window_misses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_sets_are_deterministic_and_linear() {
        let a = synth_set("host-a", 3, 99);
        let b = synth_set("host-a", 3, 99);
        assert_eq!(a, b);
        assert_ne!(a, synth_set("host-a", 4, 99));
        assert_ne!(a.cycles, synth_set("host-b", 3, 99).cycles);

        // The cost is exactly the machine's linear form.
        let betas = machine_betas("host-a", 99);
        let mut expect = betas[0];
        for (i, e) in EVENTS.iter().enumerate() {
            expect += betas[i + 1] * a.indicators[e];
        }
        assert_eq!(a.cycles, expect);
    }

    #[test]
    fn transfer_model_recovers_synthetic_machine() {
        let sets = machine_sets("host-b", 1234);
        let pairs: Vec<(BTreeMap<HwEvent, f64>, f64)> = sets
            .iter()
            .map(|s| (s.indicators.clone(), s.cycles))
            .collect();
        let model = TransferModel::fit(&pairs).unwrap();
        assert!(model.r_squared > 0.9999, "R² {}", model.r_squared);
        // A foreign machine's indicator vector gets priced by the fitted
        // linear form to high accuracy.
        let foreign = synth_set("host-a", 7, 1234);
        let betas = machine_betas("host-b", 1234);
        let mut expect = betas[0];
        for (i, e) in EVENTS.iter().enumerate() {
            expect += betas[i + 1] * foreign.indicators[e];
        }
        let got = model.predict(&foreign.indicators).unwrap();
        assert!(
            (got - expect).abs() / expect.abs() < 1e-6,
            "{got} vs {expect}"
        );
    }
}
