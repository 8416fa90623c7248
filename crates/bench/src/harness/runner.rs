//! Matrix execution: warmup + repeat sampling over every cell driver.
//!
//! Each driver builds its fixture, computes the *sequential* reference
//! result once (the bit-equality base), then runs warmup + `repeats`
//! recorded samples of the pooled/concurrent path at the cell's thread
//! count. Drivers with no pool (`memhist-ladder`, `phasen-scan`,
//! `correlate-sweep`, `sim-throughput`, `json-roundtrip`,
//! `serve-frame`) take their first run as the base. `phasen-scan` and
//! `correlate-sweep` keep the matrix's thread axis but time the same
//! serial call at every width.
//! Thread starts are barrier-synchronised (inside `np_parallel::Pool` and
//! the loadgen hammer), so samples never fold spawn skew into the
//! measured wall. All timing flows through `np_telemetry::now_ns` — this
//! module sits in the audit's `no-wall-clock` scope.

use super::config::{CellSpec, MatrixConfig};
use super::schema::{digest_str, BenchCell, BenchReport, BENCH_SCHEMA};
use np_core::evsel::{EvSel, ParameterSweep};
use np_core::memhist::Memhist;
use np_core::phasen::Phasenpruefer;
use np_core::runner::{MeasurementPlan, Runner};
use np_counters::catalog::EventCatalog;
use np_counters::measurement::{Measurement, RunSet};
use np_counters::pmu::PmuModel;
use np_simulator::{AllocPolicy, HwEvent, MachineConfig, MachineSim, ProgramBuilder};
use std::collections::BTreeMap;

/// Every cell driver the harness knows, in matrix order.
pub const DRIVERS: [&str; 9] = [
    "campaign",
    "memhist-ladder",
    "phasen-scan",
    "correlate-sweep",
    "analysis-sweep",
    "loadgen",
    "sim-throughput",
    "json-roundtrip",
    "serve-frame",
];

/// Resolves a machine preset name, or loads a `MachineConfig` from a
/// `.json` file. Shared by the harness and the CLI.
pub fn resolve_machine(name: &str) -> Result<MachineConfig, String> {
    match name {
        "dl580" => Ok(MachineConfig::dl580_gen9()),
        "two-socket" => Ok(MachineConfig::two_socket_small()),
        "ring" => Ok(MachineConfig::eight_socket_ring()),
        path if path.ends_with(".json") => {
            let json = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read machine file '{path}': {e}"))?;
            let cfg: MachineConfig = serde_json::from_str(&json)
                .map_err(|e| format!("invalid machine file '{path}': {e}"))?;
            cfg.topology
                .validate()
                .map_err(|e| format!("machine file '{path}': {e}"))?;
            Ok(cfg)
        }
        other => Err(format!(
            "unknown machine '{other}' (dl580 | two-socket | ring | <file>.json)"
        )),
    }
}

/// Runs the whole matrix. `harness_threads` is the *outer* parallelism —
/// how many cells run concurrently; it can change wall times but never
/// the report structure (cells merge in matrix order, digests are pure).
pub fn run_matrix(cfg: &MatrixConfig, harness_threads: usize) -> Result<BenchReport, String> {
    let machine = resolve_machine(&cfg.machine)?;
    let cells = cfg.expand();
    if cells.is_empty() {
        return Err("np bench: the matrix expanded to zero cells".to_string());
    }
    let pool = np_parallel::Pool::new(harness_threads.max(1));
    let outcomes = pool
        .try_run(cells.len(), |i| {
            let (spec, threads, _) = &cells[i];
            drive(spec, *threads, cfg, &machine)
        })
        .map_err(|e| format!("np bench: {e}"))?;
    let mut out = Vec::with_capacity(cells.len());
    for ((spec, threads, id), outcome) in cells.into_iter().zip(outcomes) {
        let mut cell = BenchCell {
            id,
            workload: spec.workload.clone(),
            threads: threads as u64,
            size: spec.param_usize("size").unwrap_or(0) as u64,
            samples_ns: outcome.samples_ns,
            mean_ns: 0.0,
            stddev_ns: 0.0,
            digest: outcome.digest,
            audit_ok: outcome.audit_ok,
            metrics: outcome.metrics,
        };
        cell.finalize();
        out.push(cell);
    }
    Ok(BenchReport {
        schema: BENCH_SCHEMA.to_string(),
        bench_meta: np_serve::BenchMeta::collect("np-bench", harness_threads.max(1), cfg.seed),
        machine: cfg.machine.clone(),
        warmup: cfg.warmup as u64,
        repeats: cfg.repeats as u64,
        cells: out,
    })
}

/// What one driver hands back for one cell.
struct CellOutcome {
    samples_ns: Vec<u64>,
    digest: String,
    audit_ok: bool,
    metrics: BTreeMap<String, f64>,
}

/// Warmup + repeat sampling of `run` against the sequential `base`:
/// warmup runs are executed but not recorded; every run (warmup
/// included) must reproduce `base` bit-for-bit for the audit to hold.
fn sample_cell(
    warmup: usize,
    repeats: usize,
    base: &str,
    mut run: impl FnMut() -> String,
) -> (Vec<u64>, bool) {
    let mut audit_ok = true;
    for _ in 0..warmup {
        audit_ok &= run() == base;
    }
    let mut samples = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t0 = np_telemetry::now_ns();
        let got = run();
        samples.push(np_telemetry::now_ns().saturating_sub(t0).max(1));
        audit_ok &= got == base;
    }
    (samples, audit_ok)
}

/// Dispatches one cell to its driver.
fn drive(
    spec: &CellSpec,
    threads: usize,
    cfg: &MatrixConfig,
    machine: &MachineConfig,
) -> Result<CellOutcome, String> {
    match spec.workload.as_str() {
        "campaign" => campaign(spec, threads, cfg, machine),
        "memhist-ladder" => memhist_ladder(spec, threads, cfg, machine),
        "phasen-scan" => phasen_scan(spec, cfg),
        "correlate-sweep" => correlate_sweep(cfg),
        "analysis-sweep" => analysis_sweep(spec, threads, cfg, machine),
        "loadgen" => loadgen(spec, threads, cfg),
        "sim-throughput" => sim_throughput(spec, cfg, machine),
        "json-roundtrip" => json_roundtrip(cfg),
        "serve-frame" => serve_frame(cfg),
        other => Err(format!(
            "np bench: unknown cell driver '{other}' (expected one of: {})",
            DRIVERS.join(", ")
        )),
    }
}

/// The modeled-speedup metric pair shared by the pooled drivers: greedy
/// makespan of the sequential chunk costs at this thread count.
fn speedup_metrics(items: usize, item_ns: &[u64], threads: usize) -> BTreeMap<String, f64> {
    let costs: Vec<u64> = item_ns.iter().map(|&c| c.max(1)).collect();
    let total: u64 = costs.iter().sum();
    let modeled = np_parallel::modeled_makespan_ns(&costs, threads).max(1);
    BTreeMap::from([
        ("det_items".to_string(), items as f64),
        ("modeled_speedup".to_string(), total as f64 / modeled as f64),
    ])
}

/// `campaign`: batched repetitions of the row-major kernel fanned across
/// the Runner's pool, audited bit-identical against the sequential loop.
fn campaign(
    spec: &CellSpec,
    threads: usize,
    cfg: &MatrixConfig,
    machine: &MachineConfig,
) -> Result<CellOutcome, String> {
    let size = spec.param_usize("size").unwrap_or(48);
    let reps = spec.param_usize("reps").unwrap_or(6).max(2);
    let sim = MachineSim::new(machine.clone());
    let pmu = PmuModel::default();
    let events = vec![HwEvent::Cycles, HwEvent::L1dMiss, HwEvent::L3Access];
    let w = np_workloads::registry::build("row-major", Some(size), threads, machine)?;
    let program = w.build(machine);
    let mut item_ns = Vec::with_capacity(reps);
    let mut runs = Vec::new();
    for rep in 0..reps {
        let r0 = np_telemetry::now_ns();
        let one = np_counters::acquisition::measure_batched(
            &sim,
            &program,
            &events,
            1,
            cfg.seed + rep as u64,
            &pmu,
        )?;
        item_ns.push(np_telemetry::now_ns().saturating_sub(r0));
        runs.extend(one.runs);
    }
    let base = format!("{runs:?}");
    let plan = MeasurementPlan::events(events, reps, cfg.seed);
    let runner = Runner::new(machine.clone()).with_threads(threads);
    let (samples_ns, audit_ok) = sample_cell(cfg.warmup, cfg.repeats, &base, || {
        match runner.measure_program(&program, &plan) {
            Ok(rs) => format!("{:?}", rs.runs),
            Err(e) => format!("error: {e}"),
        }
    });
    Ok(CellOutcome {
        samples_ns,
        digest: digest_str(&base),
        audit_ok,
        metrics: speedup_metrics(reps, &item_ns, threads),
    })
}

/// `memhist-ladder`: the threshold ladder, every threshold's exceedance
/// counted off one observed run of `mlc-local`; each sample must
/// reproduce the first.
fn memhist_ladder(
    spec: &CellSpec,
    threads: usize,
    cfg: &MatrixConfig,
    machine: &MachineConfig,
) -> Result<CellOutcome, String> {
    let size = spec.param_usize("size").unwrap_or(1 << 16);
    let sim = MachineSim::new(machine.clone());
    let w = np_workloads::registry::build("mlc-local", Some(size), threads, machine)?;
    let program = w.build(machine);
    let tool = Memhist::with_defaults();
    let run = || format!("{:?}", tool.measure_exact(&sim, &program, cfg.seed));
    let base = run();
    let items = np_core::memhist::MemhistConfig::default().thresholds.len();
    let (samples_ns, audit_ok) = sample_cell(cfg.warmup, cfg.repeats, &base, run);
    Ok(CellOutcome {
        samples_ns,
        digest: digest_str(&base),
        audit_ok,
        metrics: BTreeMap::from([("det_items".to_string(), items as f64)]),
    })
}

/// `phasen-scan`: the exhaustive pivot scan over a synthetic ramp-then-
/// flat footprint (clear two-phase structure); each sample must
/// reproduce the first.
fn phasen_scan(spec: &CellSpec, cfg: &MatrixConfig) -> Result<CellOutcome, String> {
    let foot_len = spec.param_usize("footprint").unwrap_or(160) as u64;
    let footprint: Vec<(u64, u64)> = (0..foot_len)
        .map(|i| {
            let rss_mib = if i < foot_len / 3 {
                i * 4
            } else {
                (foot_len / 3) * 4 + (i % 7)
            };
            (i * 50_000, rss_mib << 20)
        })
        .collect();
    let pp = Phasenpruefer::default();
    let run = || format!("{:?}", pp.detect(&footprint));
    let base = run();
    let (samples_ns, audit_ok) = sample_cell(cfg.warmup, cfg.repeats, &base, run);
    Ok(CellOutcome {
        samples_ns,
        digest: digest_str(&base),
        audit_ok,
        metrics: BTreeMap::from([("det_items".to_string(), footprint.len() as f64)]),
    })
}

/// `correlate-sweep`: one regression battery per catalog event over a
/// synthetic parameter sweep with known families; each sample must
/// reproduce the first.
fn correlate_sweep(cfg: &MatrixConfig) -> Result<CellOutcome, String> {
    let ids = EventCatalog::builtin().ids();
    let mut sweep = ParameterSweep::new("threads");
    for &p in &[1.0f64, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0] {
        let mut rs = RunSet::new(format!("p{p}"));
        for rep in 0..3u64 {
            let mut m = Measurement::new(cfg.seed + p as u64 * 10 + rep);
            for (ei, &e) in ids.iter().enumerate() {
                let k = (ei + 1) as f64;
                let v = match ei % 3 {
                    0 => 100.0 * k + 500.0 * k * p,
                    1 => 50.0 * k + 3.0 * k * p * p,
                    _ => 1e5 * k * (-0.15 * p).exp(),
                };
                m.values.insert(e, v * (1.0 + rep as f64 * 1e-4));
            }
            rs.runs.push(m);
        }
        sweep.push(p, rs);
    }
    let digest = |rep: &np_core::evsel::SweepReport| {
        rep.rows
            .iter()
            .map(|r| {
                format!(
                    "{}:{}:{:?}:{}",
                    r.event.name(),
                    r.pearson.to_bits(),
                    r.best.kind,
                    r.best.r_squared.to_bits()
                )
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    let run = || digest(&EvSel::default().correlate(&sweep));
    let base = run();
    let (samples_ns, audit_ok) = sample_cell(cfg.warmup, cfg.repeats, &base, run);
    Ok(CellOutcome {
        samples_ns,
        digest: digest_str(&base),
        audit_ok,
        metrics: BTreeMap::from([("det_items".to_string(), ids.len() as f64)]),
    })
}

/// `analysis-sweep`: the differential-envelope static analysis over every
/// registry workload, pooled vs sequential.
fn analysis_sweep(
    spec: &CellSpec,
    threads: usize,
    cfg: &MatrixConfig,
    machine: &MachineConfig,
) -> Result<CellOutcome, String> {
    let size = spec.param_usize("size").unwrap_or(48);
    let mut programs = Vec::new();
    for name in np_workloads::registry::NAMES {
        let w = np_workloads::registry::build(name, Some(size), threads, machine)?;
        programs.push((name.to_string(), w.build(machine)));
    }
    let mut item_ns = Vec::with_capacity(programs.len());
    let mut serial = Vec::with_capacity(programs.len());
    for (name, program) in &programs {
        let p0 = np_telemetry::now_ns();
        serial.push((name.as_str(), np_analysis::analyze(program, machine)));
        item_ns.push(np_telemetry::now_ns().saturating_sub(p0));
    }
    let base = format!("{serial:?}");
    let items = programs.len();
    let pool = np_parallel::Pool::new(threads);
    let (samples_ns, audit_ok) = sample_cell(cfg.warmup, cfg.repeats, &base, || {
        format!("{:?}", np_analysis::analyze_many(&programs, machine, &pool))
    });
    Ok(CellOutcome {
        samples_ns,
        digest: digest_str(&base),
        audit_ok,
        metrics: speedup_metrics(items, &item_ns, threads),
    })
}

/// `sim-throughput`: the simulator's load path, one thread at core 0:
/// `size` loads at an 8-byte stride over 8 MiB, then `size` loads at a
/// 4 KiB stride over 32 MiB, both buffers bound to node 0. Each sample
/// must reproduce the first run's machine-wide totals and cycles.
/// `det_accesses` counts the simulated loads, so ns per simulated access
/// is `mean_ns / det_accesses`.
fn sim_throughput(
    spec: &CellSpec,
    cfg: &MatrixConfig,
    machine: &MachineConfig,
) -> Result<CellOutcome, String> {
    let size = spec.param_usize("size").unwrap_or(100_000);
    let loads = |stride: u64, bytes: u64| {
        let mut b = ProgramBuilder::new(&machine.topology, 4096);
        let buf = b.alloc(bytes, AllocPolicy::Bind(0));
        let t = b.add_thread(0);
        for i in 0..size as u64 {
            b.load(t, buf + (i * stride) % bytes);
        }
        b.build()
    };
    let programs = [loads(8, 8 << 20), loads(4096, 32 << 20)];
    let sim = MachineSim::new(machine.clone());
    let run = || -> Result<String, String> {
        let mut out = String::new();
        for program in &programs {
            let r = sim
                .run(program, cfg.seed)
                .map_err(|e| format!("sim-throughput: {e}"))?;
            out.push_str(&format!("{:?}@{};", r.counters.totals(), r.cycles));
        }
        Ok(out)
    };
    let base = run()?;
    let (samples_ns, audit_ok) = sample_cell(cfg.warmup, cfg.repeats, &base, || {
        run().unwrap_or_else(|e| format!("error: {e}"))
    });
    Ok(CellOutcome {
        samples_ns,
        digest: digest_str(&base),
        audit_ok,
        metrics: BTreeMap::from([("det_accesses".to_string(), (2 * size) as f64)]),
    })
}

/// The exchange's largest frame: the `Sets` reply carrying one synthetic
/// machine's 48 indicator sets.
fn largest_frame(seed: u64) -> np_serve::ResponseFrame {
    np_serve::ResponseFrame::new(vec![np_serve::Response::Sets(np_serve::proto::SetsReply {
        sets: np_serve::loadgen::machine_sets("host-a", seed),
    })])
}

/// `json-roundtrip`: the JSON codec on the exchange's largest frame. Each
/// sample encodes the frame and decodes it back; the decoded frame must
/// equal the original. The digest covers the encoded text, so a change
/// to the wire format moves it, and `det_bytes` counts its bytes.
fn json_roundtrip(cfg: &MatrixConfig) -> Result<CellOutcome, String> {
    let frame = largest_frame(cfg.seed);
    let encode = || serde_json::to_string(&frame).map_err(|e| format!("json-roundtrip: {e}"));
    let base = encode()?;
    let (samples_ns, audit_ok) = sample_cell(cfg.warmup, cfg.repeats, &base, || {
        let text = match encode() {
            Ok(text) => text,
            Err(e) => return e,
        };
        match serde_json::from_str::<np_serve::ResponseFrame>(&text) {
            Ok(back) if back == frame => text,
            Ok(_) => "json-roundtrip: the decoded frame differs".to_string(),
            Err(e) => format!("json-roundtrip: {e}"),
        }
    });
    Ok(CellOutcome {
        samples_ns,
        digest: digest_str(&base),
        audit_ok,
        metrics: BTreeMap::from([("det_bytes".to_string(), base.len() as f64)]),
    })
}

/// `serve-frame`: the exchange server's own reply path on its largest
/// frame. The server's store holds the machine's 48 sets, and each sample
/// answers one machine-wide query line through `ExchangeServer::answer`,
/// as a connection would. The reply must decode to the `json-roundtrip`
/// frame, and its bytes are that frame's text: the digest is the same,
/// and `det_bytes` counts them.
fn serve_frame(cfg: &MatrixConfig) -> Result<CellOutcome, String> {
    let frame = largest_frame(cfg.seed);
    let server = np_serve::ExchangeServer::new(8, 16);
    for set in np_serve::loadgen::machine_sets("host-a", cfg.seed) {
        server.store().put(set);
    }
    let request = serde_json::to_string(&np_serve::RequestFrame::new(vec![
        np_serve::Request::Query(np_serve::QueryReq::machine("host-a")),
    ]))
    .map_err(|e| format!("serve-frame: {e}"))?;
    let base = server.answer(&request);
    let decodes = serde_json::from_str::<np_serve::ResponseFrame>(&base).is_ok_and(|r| r == frame);
    let (samples_ns, audit_ok) =
        sample_cell(cfg.warmup, cfg.repeats, &base, || server.answer(&request));
    Ok(CellOutcome {
        samples_ns,
        digest: digest_str(&base),
        audit_ok: decodes && audit_ok,
        metrics: BTreeMap::from([("det_bytes".to_string(), base.len() as f64)]),
    })
}

/// `loadgen`: one in-process exchange per sample, hammered by `threads`
/// barrier-synchronised client sessions. The digest covers the run's
/// deterministic invariants (zero-error count, transfer audit, stored
/// sets); throughput goes into the measured metrics.
fn loadgen(spec: &CellSpec, threads: usize, cfg: &MatrixConfig) -> Result<CellOutcome, String> {
    let frames = spec.param_usize("frames").unwrap_or(8).max(1);
    let run_once = || -> Result<np_serve::LoadSummary, String> {
        let server = np_serve::ExchangeServer::new(8, 128).with_workers(threads.max(1));
        let listener = np_serve::ExchangeServer::bind().map_err(|e| format!("loadgen: {e}"))?;
        let handle = server
            .start(listener)
            .map_err(|e| format!("loadgen: {e}"))?;
        let config = np_serve::LoadgenConfig {
            addr: handle.addr().to_string(),
            clients: threads.max(1),
            frames_per_client: frames,
            seed: cfg.seed,
        };
        let result = np_serve::loadgen::run(&config);
        handle.stop();
        result.map_err(|e| format!("loadgen: {e}"))
    };
    // The first run establishes the deterministic base; later samples
    // must reproduce it (every run boots a fresh server, so the store
    // contents are a pure function of the seeded load).
    let mut audit_ok = true;
    let mut digest = String::new();
    let mut frames_per_sec = 0.0;
    let mut cache_speedup = 0.0;
    let mut samples_ns = Vec::with_capacity(cfg.repeats);
    for i in 0..cfg.warmup + cfg.repeats {
        let t0 = np_telemetry::now_ns();
        let summary = run_once()?;
        let wall = np_telemetry::now_ns().saturating_sub(t0).max(1);
        let got = loadgen_digest_preimage(&summary);
        audit_ok &= summary.smoke_ok();
        frames_per_sec = summary.frames_per_sec;
        cache_speedup = summary.cache_speedup;
        if digest.is_empty() {
            digest = got.clone();
        }
        audit_ok &= got == digest;
        if i >= cfg.warmup {
            samples_ns.push(wall);
        }
    }
    Ok(CellOutcome {
        samples_ns,
        digest: digest_str(&digest),
        audit_ok,
        metrics: BTreeMap::from([
            ("frames_per_sec".to_string(), frames_per_sec),
            ("cache_speedup".to_string(), cache_speedup),
        ]),
    })
}

/// The digest preimage of one loadgen run: its deterministic invariants
/// (error and degraded-frame counts, transfer audit, stored sets). The
/// matrix `loadgen` cell and `np loadgen`'s artifact hash the same
/// string, so the two diff cleanly against each other.
fn loadgen_digest_preimage(summary: &np_serve::LoadSummary) -> String {
    format!(
        "errors={},degraded={},transfer={},sets={}",
        summary.errors, summary.degraded_frames, summary.transfer_consistent, summary.stored_sets
    )
}

/// `np loadgen`'s artifact: one live run as a one-cell `np-bench/1`
/// report keyed `loadgen/t<clients>`, whose single sample is the
/// hammer-phase wall time.
pub fn loadgen_report(summary: &np_serve::LoadSummary) -> BenchReport {
    let clients = summary.clients.max(1);
    let mut cell = BenchCell {
        id: format!("loadgen/t{clients}"),
        workload: "loadgen".to_string(),
        threads: clients,
        size: 0,
        samples_ns: vec![(summary.hammer_ms * 1e6).max(1.0) as u64],
        mean_ns: 0.0,
        stddev_ns: 0.0,
        digest: digest_str(&loadgen_digest_preimage(summary)),
        audit_ok: summary.errors == 0
            && summary.degraded_frames == 0
            && summary.transfer_consistent,
        metrics: BTreeMap::from([
            ("frames_per_sec".to_string(), summary.frames_per_sec),
            ("cache_speedup".to_string(), summary.cache_speedup),
        ]),
    };
    cell.finalize();
    BenchReport {
        schema: BENCH_SCHEMA.to_string(),
        bench_meta: summary.meta.clone(),
        machine: "live".to_string(),
        warmup: 0,
        repeats: 1,
        cells: vec![cell],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::config::MatrixConfig;

    fn tiny_config() -> MatrixConfig {
        MatrixConfig::parse(
            "repeats = 2\nwarmup = 0\nthreads = [1, 2]\n\
             [[cell]]\nworkload = \"phasen-scan\"\nfootprint = 80\n",
        )
        .unwrap()
    }

    #[test]
    fn a_tiny_matrix_runs_and_audits() {
        let report = run_matrix(&tiny_config(), 1).unwrap();
        assert_eq!(report.schema, BENCH_SCHEMA);
        assert_eq!(report.cells.len(), 2);
        assert!(report.audit_ok());
        for cell in &report.cells {
            assert_eq!(cell.samples_ns.len(), 2);
            assert!(cell.mean_ns > 0.0);
            assert_eq!(cell.digest.len(), 16);
        }
        assert_eq!(report.cells[0].id, "phasen-scan/t1");
        assert_eq!(report.cells[1].id, "phasen-scan/t2");
    }

    #[test]
    fn structure_is_identical_across_harness_threads() {
        let cfg = tiny_config();
        let a = run_matrix(&cfg, 1).unwrap();
        let b = run_matrix(&cfg, 4).unwrap();
        assert_eq!(a.structure_digest(), b.structure_digest());
    }

    #[test]
    fn unknown_driver_and_machine_are_clear_errors() {
        let mut cfg = tiny_config();
        cfg.cells[0].workload = "frobnicate".to_string();
        let err = run_matrix(&cfg, 1).unwrap_err();
        assert!(
            err.contains("frobnicate") && err.contains("campaign"),
            "{err}"
        );
        let mut cfg = tiny_config();
        cfg.machine = "cray".to_string();
        assert!(run_matrix(&cfg, 1).is_err());
    }

    #[test]
    fn loadgen_report_is_one_cell_with_the_matrix_digest() {
        let summary = np_serve::LoadSummary {
            meta: np_serve::BenchMeta::collect("loadgen", 8, 1),
            seed: 1,
            clients: 8,
            frames: 166,
            requests: 356,
            errors: 0,
            degraded_frames: 0,
            hammer_ms: 79.6,
            frames_per_sec: 1607.5,
            cold_predict_micros: 620.0,
            warm_predict_micros: 30.7,
            cache_speedup: 20.18,
            cache_hits: 32,
            cache_misses: 41,
            cache_evictions: 0,
            transfer_consistent: true,
            transfer_rel_diff: 0.0,
            stored_sets: 136,
            window_interval_ms: 100,
            window_ops: vec![356],
            window_hits: vec![32],
            window_misses: vec![41],
        };
        assert_eq!(
            loadgen_digest_preimage(&summary),
            "errors=0,degraded=0,transfer=true,sets=136"
        );
        let report = loadgen_report(&summary);
        assert_eq!(report.schema, BENCH_SCHEMA);
        assert_eq!(report.bench_meta, summary.meta);
        assert_eq!(report.machine, "live");
        assert_eq!(report.cells.len(), 1);
        let c = &report.cells[0];
        assert_eq!((c.id.as_str(), c.threads), ("loadgen/t8", 8));
        assert_eq!(c.samples_ns, vec![79_600_000]);
        assert_eq!(
            c.digest,
            digest_str("errors=0,degraded=0,transfer=true,sets=136")
        );
        assert!(c.audit_ok);
        assert_eq!(c.metrics["frames_per_sec"], 1607.5);
        assert_eq!(c.metrics["cache_speedup"], 20.18);
        // A degraded frame fails the cell's audit and moves its digest.
        let degraded = np_serve::LoadSummary {
            degraded_frames: 1,
            ..summary
        };
        let d = &loadgen_report(&degraded).cells[0];
        assert!(!d.audit_ok);
        assert_ne!(d.digest, c.digest);
    }

    #[test]
    fn machine_presets_resolve() {
        assert!(resolve_machine("dl580").is_ok());
        assert!(resolve_machine("two-socket").is_ok());
        assert!(resolve_machine("ring").is_ok());
        assert!(resolve_machine("cray").is_err());
    }
}
